// Sharded broker fleet (serve-daemon tentpole).
//
// One sequenced Broker caps matching throughput at a single core; the
// fleet hosts N of them, each owning a deterministic partition of the
// subscription space, behind one apply() of sequenced records.  Partition
// rule: a subscriber's *global* id hashes to its home shard
// (FleetShardOf, a stable splitmix64 mix — no reassignment as the fleet
// grows its population), and the shard stores it under a dense *local* id.
// Churn routes to the home shard; publishes fan out to every shard and the
// per-shard interested sets are merged by the same word-level counting
// sort the broker itself uses, so the merged set — and everything decided
// from it — depends only on the subscription state, not on shard count or
// fan-out scheduling.
//
// The shards are the only holders of subscription state.  The fleet keeps
// the two id maps, and nothing else it could not recompute: global ids are
// handed out in order and each takes the next slot of its home shard, so
// the partition rule and the subscriber count determine both maps.
//
// Determinism contract (pinned by tests/test_fleet.cc): at any shard
// count, the fleet's state digest is bit-identical to FleetOracle — a
// single broker driven by the same command stream — at every sequence
// number.  The digest covers the fleet seq, the subscription table (read
// from the shards' own tables in global-id order) and a rolling match
// chain folding every publish's merged interested set.  Per-shard
// clustering and queue state are deliberately outside the digest: they
// depend on how the population is split (each shard clusters its own
// partition), which is the point of sharding, not a divergence.
//
// Durability is the clone pattern applied twice (DESIGN.md §11):
//   * each shard is an ordinary durable Broker — refresh-boundary snapshot
//     (Broker::write_snapshot) + its own write-ahead journal of re-stamped
//     local records;
//   * the fleet itself journals the global command stream and checkpoints
//     a FleetManifest (fleet seq, match chain, per-shard seq); manifest +
//     shard snapshots + shard journals rebuild the fleet, and the fleet
//     journal tail replays forward.
// That is the only way a fleet or a shard is rebuilt (Recover below).
//
// Degraded mode composes: when a shard's journal loses durability
// mid-record, the fleet *stalls* — the record is pending, no sequence
// number advances, and heal() (driven by the serve loop's heal-probe
// timer) finishes it on every shard before the stream continues.
#pragma once

#include <cstdint>
#include <exception>
#include <iosfwd>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "broker/broker.h"
#include "io/serialize.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "workload/types.h"

namespace pubsub {

// A mutation arrived while the fleet is stalled on a degraded shard, or a
// shard entered degraded mode mid-record.  The pending record completes
// through heal(); nothing is lost and no seq was consumed.
class FleetDegradedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct FleetOptions {
  std::size_t num_shards = 1;
  // Per-shard broker options.  obs.metrics is ignored: every shard owns a
  // private registry so counters from N shards never sum into one name.
  BrokerOptions broker;
  // Fleet-level registry (fan-out metrics, per-shard gauges); nullptr =
  // fleet-owned.  Must outlive the fleet when supplied.
  MetricsRegistry* metrics = nullptr;
  // Clock for the fan-out latency histogram (a measurement, not state);
  // nullptr = owned StopwatchClock.
  Clock* trace_clock = nullptr;
};

// Per-publish outcome at the fleet level.  `interested` aliases the
// fleet's merge buffer and stays valid until the next fleet command.
struct FleetPublishOutcome {
  std::uint64_t seq = 0;
  std::span<const SubscriberId> interested;  // merged global ids, ascending
  std::size_t shards_matched = 0;  // shards contributing >= 1 subscriber
};

// Home shard of a global subscriber id: splitmix64(id) mod num_shards.
// Stable in the id (growing the population never remaps existing
// subscribers) and independent of churn history.
std::size_t FleetShardOf(SubscriberId global_id, std::size_t num_shards);

// Rolling digest of merged interested sets: chain' = fold(chain, seq,
// ids).  Folding every publish makes the fleet digest sensitive to every
// match decision without storing any of them.
std::uint64_t FleetChainFold(std::uint64_t chain, std::uint64_t seq,
                             std::span<const SubscriberId> interested);

class BrokerFleet {
 public:
  // Fresh fleet: partitions `initial` by FleetShardOf and cold-starts one
  // broker per shard.  `pub` / `network` / `clock` (optional; defaults to
  // an owned ManualClock at 0) must outlive the fleet.
  BrokerFleet(Workload initial, const PublicationModel& pub,
              const Graph& network, const FleetOptions& options = {},
              ManualClock* clock = nullptr);
  ~BrokerFleet();

  // Recovery: rebuild every shard from its snapshot + journal (truncated
  // to the manifest's per-shard seq), re-derive the id maps from the
  // shards' total slot count, and resume at the manifest's fleet seq.
  // Throws std::runtime_error naming the shard when a shard misses its
  // manifest seq or holds other than its share of the slots.  The caller
  // replays the fleet journal tail through apply() afterwards — with sinks
  // attached, so the replay regenerates the same durable bytes.
  static std::unique_ptr<BrokerFleet> Recover(
      const FleetManifest& manifest,
      std::span<const BrokerSnapshot> shard_snapshots,
      const std::vector<std::vector<JournalRecord>>& shard_journals,
      const PublicationModel& pub, const Graph& network,
      const FleetOptions& options = {}, ManualClock* clock = nullptr);

  // --- command API ------------------------------------------------------
  // Apply an already-sequenced *fleet* record (global ids, fleet seq):
  // must carry seq() + 1.  Write-ahead to the fleet journal, then routed /
  // fanned out to the shards as re-stamped local records.  A record naming
  // an unknown subscriber or a node outside the network throws before the
  // journal, as does a failed fleet journal write (std::runtime_error): no
  // shard sees the record and no seq is consumed.  Throws
  // FleetDegradedError when a shard degrades mid-record (the record is
  // then pending; call heal()).
  FleetPublishOutcome apply(const JournalRecord& rec);

  // --- degraded-shard supervision ---------------------------------------
  // True while a record is pending on at least one degraded shard; every
  // further mutation is rejected until heal() completes it.
  bool stalled() const { return pending_active_; }
  // Heal probe (the serve loop runs this on a timer): Broker::heal_probe()
  // on every degraded shard, completing the pending record on each that
  // recovers.  Returns true once no shard is degraded and no record is
  // pending — the fleet accepts mutations again.
  bool heal();

  // --- state ------------------------------------------------------------
  std::uint64_t seq() const { return seq_; }
  std::size_t num_shards() const { return shards_.size(); }
  const Broker& shard(std::size_t k) const { return *shards_[k]; }
  std::uint64_t shard_seq(std::size_t k) const { return shard_seq_[k]; }
  // Global subscriber slots handed out (tombstones included): the slot
  // count of the table a single broker fed the same stream would hold.
  std::size_t num_subscribers() const { return global_to_local_.size(); }
  // Sum of the shards' Broker::live_subscribers().
  std::size_t live_subscribers() const;
  std::uint64_t match_chain() const { return match_chain_; }
  std::uint64_t state_digest() const;
  // Merged exact interested set (global ids, sorted): the cold read path,
  // served shard-by-shard even while stalled.
  std::vector<SubscriberId> interested(const Point& event) const;

  // --- durability plumbing ----------------------------------------------
  // Fleet-level journal of the global command stream (same file format as
  // the broker journal).  Plain stream, no fail-point wrapping: the
  // per-shard WALs are the durability seams under test; this is the
  // routing log recovery replays forward.  Throws std::runtime_error when
  // the header write leaves the stream failed.
  void set_fleet_journal(std::ostream* sink, bool write_header = true);
  // Shard k's write-ahead journal (re-stamped local records).
  void set_shard_journal(std::size_t k, std::ostream* sink,
                         bool write_header = true);
  // The manifest of a checkpoint; throws std::logic_error while stalled.
  // The caller writes each shard's snapshot with shard(k).write_snapshot.
  FleetManifest checkpoint() const;

  // --- telemetry --------------------------------------------------------
  MetricsRegistry& metrics() const { return *metrics_; }
  // Coordinator-level spans (fan-out / merge / deliver; empty unless
  // broker.obs.trace_sample > 0).  The fleet owns the sampling decision:
  // every `trace_sample`-th *fleet* seq becomes the trace id, the shards'
  // own samplers are disabled (shard_options), and each shard lane is
  // armed with Broker::set_trace_context so the whole publish shares one
  // id.
  const TraceRing& trace() const { return trace_; }
  // Every retained span — coordinator and shards — stable-sorted by
  // (trace_id, shard, stage, seq) so one WriteTraceJson dump holds each
  // traced publish's complete causal tree contiguously.
  std::vector<TraceSpan> collect_spans() const;
  std::uint64_t trace_recorded() const;  // summed across all rings
  std::uint64_t trace_dropped() const;
  // Per-shard publish-latency histograms (`fleet_shard_publish_ms`,
  // kRuntime), indexed by shard and never null — the FleetWatchdog::check
  // input.
  std::vector<const Histogram*> shard_publish_histograms() const;
  // Mutable shard access for fault-injection tests ONLY (e.g. forcing a
  // digest divergence the auditor must catch).  Mutating a shard outside
  // the fleet's sequenced stream breaks the oracle-parity invariant.
  Broker& shard_for_fault_injection(std::size_t k);

 private:
  struct RestoreTag {};
  BrokerFleet(RestoreTag, const PublicationModel& pub, const Graph& network,
              const FleetOptions& options, ManualClock* clock);

  BrokerOptions shard_options() const;
  void init_obs(std::size_t num_shards);
  // Extend both id maps to `total` global ids by the partition rule.
  void map_subscribers(std::size_t total);
  const EventSpace& space() const { return shards_[0]->workload().space; }
  std::size_t dims() const { return space().dims(); }
  void validate(const JournalRecord& rec) const;
  void journal_fleet_record(const JournalRecord& rec);
  FleetPublishOutcome fan_out_publish(const JournalRecord& rec);
  void route_churn(const JournalRecord& rec);
  // Scatter a shard's local interested ids into the global merge words.
  void scatter(std::size_t k, std::span<const SubscriberId> local_ids);
  FleetPublishOutcome finish_publish(const JournalRecord& rec);
  void finish_churn(const JournalRecord& rec);
  void update_gauges();

  const PublicationModel* pub_;
  const Graph* network_;
  FleetOptions options_;
  std::unique_ptr<ManualClock> owned_clock_;
  ManualClock* clock_ = nullptr;

  std::vector<std::unique_ptr<Broker>> shards_;
  std::vector<std::uint64_t> shard_seq_;

  // Id maps, derived from the partition rule (map_subscribers).
  std::vector<SubscriberId> global_to_local_;
  std::vector<std::vector<SubscriberId>> local_to_global_;

  std::uint64_t seq_ = 0;
  std::uint64_t match_chain_ = 0;

  // Pending-record bookkeeping while stalled on a degraded shard (the
  // matched tally accumulates across the stall and the heal).
  bool pending_active_ = false;
  JournalRecord pending_rec_;
  std::vector<char> pending_applied_;
  std::size_t pending_shards_matched_ = 0;

  // Fan-out + merge working memory, reused per publish.
  std::vector<JournalRecord> fan_recs_;
  std::vector<PublishOutcome> fan_outcomes_;
  std::vector<std::exception_ptr> fan_errors_;
  std::vector<std::uint64_t> words_;
  std::size_t word_lo_ = 0, word_hi_ = 0;
  std::vector<SubscriberId> merged_;
  StringStream record_stream_;  // fleet journal serialization buffer

  std::ostream* fleet_journal_ = nullptr;

  // --- telemetry --------------------------------------------------------
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<StopwatchClock> owned_trace_clock_;
  Clock* trace_clock_ = nullptr;
  Counter* c_commands_ = nullptr;
  Counter* c_publishes_ = nullptr;
  Counter* c_churn_ = nullptr;
  Counter* c_stalls_ = nullptr;
  Counter* c_heals_ = nullptr;
  Gauge* g_shards_ = nullptr;
  Gauge* g_seq_ = nullptr;
  Gauge* g_live_ = nullptr;
  Gauge* g_stalled_ = nullptr;
  Histogram* h_interested_ = nullptr;
  Histogram* h_fanout_ms_ = nullptr;  // kRuntime wall time per fan-out
  std::vector<Gauge*> g_shard_seq_;
  std::vector<Gauge*> g_shard_subs_;
  std::vector<Gauge*> g_shard_degraded_;
  std::vector<Histogram*> h_shard_publish_;  // kRuntime, watchdog input

  // Causal tracing (sized/armed by init_obs from broker.obs).
  TraceRing trace_{0};
  std::uint64_t trace_sample_ = 0;
  // Trace id of the record currently applying (0 = untraced).  Written on
  // the serial command path before the fan-out, read-only inside lanes.
  std::uint64_t cur_trace_id_ = 0;
};

// Aggregated fleet exposition: the fleet registry's snapshot merged with
// every shard's registry under a distinct shard="k" label, shards
// ascending.  Stability classes survive the merge, so the
// include_runtime=false subset stays byte-identical across --threads.
MetricsSnapshot FleetScrape(const BrokerFleet& fleet,
                            bool include_runtime = true);

// Audit inputs for FleetWatchdog::audit: each shard's actual seq and
// digest against the fleet's bookkeeping (shard_seq).
std::vector<ShardAuditSample> CollectShardAudit(const BrokerFleet& fleet);

// The single-broker oracle the fleet is measured against: one Broker fed
// the same global stream, folding each publish's interested set into the
// same match chain.  Its state_digest() folds its table through the same
// function as BrokerFleet::state_digest(), and the two are equal at every
// seq, for every shard count — the tentpole invariant.
class FleetOracle {
 public:
  FleetOracle(Workload initial, const PublicationModel& pub,
              const Graph& network, const BrokerOptions& options = {},
              Clock* clock = nullptr);

  void apply(const JournalRecord& rec);

  std::uint64_t seq() const { return broker_.seq(); }
  std::uint64_t match_chain() const { return chain_; }
  std::uint64_t state_digest() const;
  const Broker& broker() const { return broker_; }
  // The last publish's interested set (aliases broker scratch; valid until
  // the next command) — tests compare it against the fleet's merged set.
  std::span<const SubscriberId> last_interested() const { return last_; }

 private:
  Broker broker_;
  std::uint64_t chain_ = 0;
  std::span<const SubscriberId> last_;
};

}  // namespace pubsub
