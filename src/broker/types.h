// Shared value types of the broker service layer (§6 items 5–6: a live
// broker absorbs subscription churn and must recover its state after
// failure).
//
// The broker's durable state follows the clone-server pattern: state =
// *snapshot* + *sequenced update stream*.  Every state-mutating operation
// is a BrokerCommand; the broker stamps it with a monotone sequence number
// and a broker-clock timestamp, making a JournalRecord — the unit of the
// write-ahead journal and of the fleet's per-shard fan-out.  Replaying a
// record applies the *recorded* time, not the live clock, so queueing
// state (and hence every timing statistic) reconstructs exactly.
//
// These are plain structs with no behaviour so that io/serialize can
// read/write them without depending on the broker library.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cluster_types.h"
#include "geometry/rect.h"
#include "workload/types.h"

namespace pubsub {

enum class BrokerCommandType { kSubscribe, kUnsubscribe, kUpdate, kPublish };

struct BrokerCommand {
  BrokerCommandType type = BrokerCommandType::kPublish;
  double time_ms = 0.0;          // broker-clock time at submission
  NodeId node = -1;              // subscribe: subscriber host; publish: origin
  SubscriberId subscriber = -1;  // unsubscribe / update target
  Rect interest;                 // subscribe / update
  Point point;                   // publish
};

struct JournalRecord {
  std::uint64_t seq = 0;  // assigned by the broker; contiguous from 1
  BrokerCommand cmd;
};

// Service counters.  All fields are pure functions of the applied command
// stream except snapshot_bytes / replayed_records, which record recovery
// provenance (what this broker instance was bootstrapped from), and the
// durability block (flush failures through mutations rejected), which
// records fault provenance — what storage did to this broker — and is zero
// on a healthy run.
struct BrokerStats {
  std::uint64_t commands_applied = 0;
  std::uint64_t subscribes = 0;
  std::uint64_t unsubscribes = 0;
  std::uint64_t updates = 0;
  std::uint64_t publishes = 0;
  std::uint64_t events_matched = 0;  // publishes with >= 1 interested sub
  std::uint64_t multicast_events = 0;
  std::uint64_t unicast_events = 0;
  std::uint64_t messages_emitted = 0;  // group deliveries + unicast messages
  std::uint64_t wasted_deliveries = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t full_rebuilds = 0;
  std::uint64_t journal_bytes = 0;  // serialized size of the record stream
  std::uint64_t snapshot_bytes = 0;   // size of the bootstrap snapshot
  std::uint64_t replayed_records = 0; // journal tail applied at recovery
  // Durability block (see docs/OPERATIONS.md).
  std::uint64_t journal_flush_failures = 0;  // flush attempts that failed
  std::uint64_t journal_flush_retries = 0;   // backoff retries performed
  std::uint64_t degraded_entries = 0;        // times degraded mode engaged
  std::uint64_t mutations_rejected = 0;      // commands refused while degraded
  bool operator==(const BrokerStats&) const = default;
};

// Durable image of a broker.  Snapshots are captured at refresh boundaries
// (including the initial build at seq 0), where the subscription table, the
// grid and the adopted clustering agree and the refresh-policy waste window
// is empty — so a snapshot plus the journal records with seq > `seq` is a
// complete reconstruction recipe at any later sequence number.
struct BrokerSnapshot {
  std::uint64_t seq = 0;  // last command applied before capture
  // Subscription table as of `seq` (tombstoned ids keep their slots).
  Workload workload;
  // Clustering adopted verbatim on restore (no re-clustering).
  int num_groups = 0;
  std::uint64_t cells_fed = 0;
  Assignment assignment;
  // GroupManager warm/cold bookkeeping at capture.
  std::uint64_t churn_since_full_build = 0;
  // DeliveryRuntime per-node queue state (earliest idle time).
  std::vector<double> queue_state;
  BrokerStats stats;
};

}  // namespace pubsub
