// Durable, deterministic single-node broker service (§6 items 5–6).
//
// The repo's clustering/matching stack is a set of libraries the caller
// wires together per experiment; Broker packages them as a *service*:
// GroupManager owns the clustering lifecycle, GridMatcher serves match
// decisions, DeliveryRuntime prices time, and a RefreshPolicy decides when
// to re-cluster — all behind a sequenced command API:
//
//   subscribe / unsubscribe / update / publish
//
// Durability follows the clone-server pattern (state = snapshot +
// sequenced update stream):
//
//   * every command becomes a JournalRecord (monotone seq, broker-clock
//     stamp) appended to a write-ahead journal *before* it is applied;
//   * snapshots are captured at refresh boundaries, where the table, grid
//     and clustering agree and the policy's waste window is empty;
//   * recovery = load the latest snapshot, rebuild the grid and the
//     lattice index from its table (pure functions), adopt its clustering
//     verbatim, restore queue state, then replay the journal tail.  Replay
//     applies each record's *recorded* timestamp, so the recovered broker
//     is bit-identical to an uninterrupted run — match decisions, latencies
//     and counters alike.
//
// Determinism inputs are explicit: a pluggable Clock stamps commands, and
// nothing in the command path draws randomness (clustering warm starts are
// deterministic; drivers that want stochastic churn seed their own Rng and
// the resulting commands are journaled).  The live subscription index is a
// lattice index (index/lattice_index.h): one bit-column per (attribute,
// value), so an event's interested set is the AND of its columns, emitted in
// ascending order.  Publishes must be lattice points (finite integer
// coordinates); any other point is rejected before the journal.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "broker/refresh_policy.h"
#include "broker/types.h"
#include "core/group_manager.h"
#include "core/match_scratch.h"
#include "index/lattice_index.h"
#include "io/file.h"
#include "io/string_stream.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/delivery_runtime.h"

namespace pubsub {

// Telemetry wiring (all optional; the broker is fully instrumented either
// way — with no registry supplied it owns a private one, so counters from
// two brokers in a process never mix).
struct BrokerObsOptions {
  // Registry receiving every broker/groups/matcher/runtime metric; nullptr
  // = broker-owned.  Must outlive the broker when supplied.
  MetricsRegistry* metrics = nullptr;
  // Clock for stage spans (match / group-selection / delivery-plan /
  // journal-flush).  nullptr = owned StopwatchClock (wall time); tests
  // inject a ManualClock for deterministic traces.  This is distinct from
  // the broker's command clock: command stamps are replayed state, stage
  // durations are measurements.
  Clock* trace_clock = nullptr;
  // Ring capacity for retained spans (oldest overwritten beyond it).
  std::size_t trace_capacity = 512;
  // Record spans for every N-th command (0 disables the ring; stage
  // latency histograms are always fed).
  std::uint64_t trace_sample = 0;
};

// How the broker responds to journal-flush failures (fsync errors, short
// writes that make no progress).  A failed flush is retried
// kJournalFlushRetries times with exponential backoff from
// kJournalBackoffBaseMs (1 + 2 + 4 + 8 = 15 ms) — deterministic when the
// command clock is a ManualClock, which the broker advances by each backoff
// delay — and when the budget is exhausted the broker *degrades* instead of
// crashing: the rejected command is rolled off, matching keeps serving
// reads, and every further mutation throws BrokerDegradedError until
// clear_degraded() verifies the sink again (see docs/OPERATIONS.md,
// "Degraded mode").
inline constexpr std::size_t kJournalFlushRetries = 4;
inline constexpr double kJournalBackoffBaseMs = 1.0;

// Delivery timing uses the default RuntimeParams.
struct BrokerOptions {
  GroupManagerOptions group;
  RefreshPolicyOptions refresh;
  BrokerObsOptions obs;
};

// A mutation arrived while the broker is in read-only degraded mode (the
// journal could not be made durable).  Distinct from other failures so
// callers can shed writes and keep reading.
class BrokerDegradedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Per-publish outcome: the match decision (with the caller-side unicast
// completion applied) plus delivery timing.
//
// Zero-copy: unicast_targets and timing.latencies_ms alias the broker's
// publish scratch and stay valid until the broker's next command (publish,
// churn, apply or clear_degraded).  Copy them out to keep them longer
// (DESIGN.md §10).
struct PublishOutcome {
  std::uint64_t seq = 0;
  int group_id = -1;       // -1 = pure unicast
  std::size_t group_size = 0;
  // Interested subscribers served by unicast: the matcher's fallback set,
  // plus interested \ group when a group was used (the between-refresh
  // window contract — see core/group_manager.h).  Sorted ascending.
  std::span<const SubscriberId> unicast_targets;
  // The full interested set for the event, sorted ascending (the
  // counting-sort emission of interested_into).  A sharded fleet merges
  // these per-shard sets into the global decision (src/serve/fleet.h).
  std::span<const SubscriberId> interested_set;
  std::size_t interested = 0;
  std::size_t wasted = 0;  // group members not interested
  bool refreshed = false;  // this command triggered a refresh
  DeliveryTiming timing;   // group latencies first, then unicast targets'
};

class Broker {
 public:
  // Fresh broker: clusters `initial` cold and starts at seq 0.  `pub`,
  // `network` and `clock` (optional; defaults to an owned ManualClock at 0)
  // must outlive the broker.  A subscriber at a node outside `network`
  // throws std::out_of_range, here and in Recover.
  Broker(Workload initial, const PublicationModel& pub, const Graph& network,
         const BrokerOptions& options = {}, Clock* clock = nullptr);

  // Recovery: bootstrap from `snapshot`, then replay `journal` records with
  // seq > snapshot.seq (earlier records are skipped; a gap throws
  // std::runtime_error).  Stats resume from the snapshot, with
  // snapshot_bytes / replayed_records recording the recovery provenance.
  static std::unique_ptr<Broker> Recover(const BrokerSnapshot& snapshot,
                                         std::span<const JournalRecord> journal,
                                         const PublicationModel& pub,
                                         const Graph& network,
                                         const BrokerOptions& options = {},
                                         Clock* clock = nullptr);

  // --- durability plumbing ---------------------------------------------
  // Append journal records to `sink` (nullptr detaches).  With
  // `write_header`, emits the journal header first — pass false when
  // resuming an existing journal file.  Records are flushed per command.
  // The stream is wrapped in a StreamSink under the "journal.*" fail-point
  // sites.
  void set_journal(std::ostream* sink, bool write_header = true);

  // --- command API ------------------------------------------------------
  SubscriberId subscribe(NodeId node, const Rect& interest);
  void unsubscribe(SubscriberId id);
  void update(SubscriberId id, const Rect& interest);
  PublishOutcome publish(NodeId origin, const Point& event);

  // Apply an already-sequenced record (fleet fan-out / replay): must carry
  // seq() + 1 and is applied with its recorded timestamp.  Journals to the
  // sink like a local command.  Returns the publish outcome
  // (default-constructed but for seq and refreshed on churn records).
  PublishOutcome apply(const JournalRecord& rec);

  // --- state ------------------------------------------------------------
  std::uint64_t seq() const { return seq_; }
  // Service counters, materialized from the metrics registry (the registry
  // is the single source of truth; BrokerStats remains the serialized
  // snapshot form).  Returned by value — binding a const reference at call
  // sites stays valid through lifetime extension.
  BrokerStats stats() const;
  const GroupManager& groups() const { return *mgr_; }
  const Workload& workload() const { return mgr_->workload(); }
  // Subscribers whose interest, clipped to the domain, is non-empty
  // (tombstones and out-of-domain interests excluded), which the
  // broker_live_subscribers gauge reports.
  std::size_t live_subscribers() const { return lattice_.live(); }
  double last_command_time_ms() const { return last_time_ms_; }

  // Exact interested set for an event against the live table (sorted);
  // no journaling, no delivery-timing mutation and no refresh — the lookup
  // path degraded mode keeps serving.  Throws std::invalid_argument unless
  // `event` is a lattice point (EventSpace::check_lattice_point).
  std::vector<SubscriberId> interested(const Point& event) const;

  // --- degraded mode ----------------------------------------------------
  // True once a journal append exhausted its retry budget: mutations
  // (subscribe/unsubscribe/update/publish/apply) throw BrokerDegradedError,
  // reads (interested/stats/snapshot) keep serving.
  bool degraded() const { return degraded_; }
  // Probe the journal sink again (operator action after fixing storage).
  // Returns true — and re-enables mutations — iff the interrupted append
  // completes and the sink flushes clean.  Because part of the rejected
  // record may already be on disk, the append is *finished*, not abandoned:
  // on success the command that triggered degradation takes effect (its
  // seq is consumed), exactly as if the original caller had retried it.
  bool clear_degraded();
  // Supervision hook (serve-loop heal timer): clear_degraded() plus probe
  // accounting, and a cheap no-op on a healthy broker.  Returns true when
  // the broker is (or becomes) healthy.  Probe counters are kRuntime —
  // probes are driven by timers, not by the journaled command stream, so a
  // recovered broker legitimately reports different values.
  bool heal_probe();

  // Latest refresh-boundary snapshot (see types.h).  write_snapshot
  // serializes it and returns the byte count.
  const BrokerSnapshot& snapshot() const { return checkpoint_; }
  std::uint64_t write_snapshot(std::ostream& os) const;

  // Word-wise FNV-1a digest of the durable state's raw fields (seq, churn
  // bookkeeping, live table, clustering, queue state); equal digests at
  // equal seq mean two brokers will make identical decisions from here on.
  std::uint64_t state_digest() const;

  // --- telemetry --------------------------------------------------------
  // The registry serving this broker (owned unless options.obs.metrics was
  // supplied).  scrape(false) yields the deterministic subset.
  MetricsRegistry& metrics() const { return *metrics_; }
  // Retained publish-path spans (empty unless trace_sample > 0).
  const TraceRing& trace() const { return trace_; }
  // Arm a fleet-assigned causal trace context for the NEXT applied record:
  // that record's spans are forced into the ring (regardless of
  // trace_sample) tagged with `trace_id` and `shard`, then the context
  // disarms.  A standalone broker never arms this; its sampled spans carry
  // trace_id = seq and shard = -1.
  void set_trace_context(std::uint64_t trace_id, std::int32_t shard);

 private:
  struct RestoreTag {};
  Broker(RestoreTag, const BrokerSnapshot& snapshot,
         const PublicationModel& pub, const Graph& network,
         const BrokerOptions& options, Clock* clock);

  JournalRecord make_record(BrokerCommand cmd);
  PublishOutcome apply_record(const JournalRecord& rec);
  PublishOutcome finish_apply(const JournalRecord& rec);
  // Durable append with short-write/flush retries and capped exponential
  // backoff; `rec` is the record the bytes encode (nullptr for the header,
  // which is not byte-accounted and has no state to carry into degraded
  // mode).  Throws BrokerDegradedError once the retry budget is spent.
  void journal_append(const std::string& text, const JournalRecord* rec);
  [[noreturn]] void enter_degraded(const std::string& why,
                                   const std::string& text, std::size_t offset,
                                   const JournalRecord* rec);
  // Reject invalid commands BEFORE the write-ahead append: a command that
  // would fail mid-apply must fail identically on live submit, apply() and
  // journal replay, without consuming a sequence number or reaching the
  // journal (an unknown-id unsubscribe or an out-of-network node that got
  // journaled would crash recovery replay).
  void validate_command(const BrokerCommand& cmd) const;
  void apply_churn(const BrokerCommand& cmd);
  PublishOutcome apply_publish(const BrokerCommand& cmd);
  void maybe_refresh(PublishOutcome* outcome);
  void capture_checkpoint();
  void bootstrap_index();
  // Sorted interested set for lattice point `event`: the AND of its columns
  // in `s.words`, emitted in ascending order into `s.interested`.  The
  // interested bits (and s.word_lo/word_hi) are left set for the completion
  // kernel — the caller must s.clear_words() when done.
  std::span<const SubscriberId> interested_into(const Point& event,
                                                MatchScratch& s) const;
  std::span<const NodeId> nodes_into(std::span<const SubscriberId> subs,
                                     std::vector<NodeId>& out) const;
  void init_obs(const BrokerOptions& options);
  void seed_stats(const BrokerStats& s);
  void update_derived_gauges();

  const PublicationModel* pub_;
  const Graph* network_;
  BrokerOptions options_;
  std::unique_ptr<GroupManager> mgr_;
  std::unique_ptr<DeliveryRuntime> runtime_;
  RefreshPolicy policy_;
  std::unique_ptr<ManualClock> owned_clock_;
  Clock* clock_;

  // Live subscription index (DESIGN.md §10): one bit-column per
  // (attribute, value) over every slot of the table.
  LatticeIndex lattice_;

  // Journal sink around the std::ostream passed to set_journal.
  std::unique_ptr<StreamSink> journal_;
  bool degraded_ = false;
  // The append interrupted by degradation: bytes [0, pending_offset_) were
  // accepted by the sink before the budget ran out, so clear_degraded()
  // must finish this exact text before any new record may be appended.
  std::string pending_text_;
  std::size_t pending_offset_ = 0;
  bool pending_is_record_ = false;
  JournalRecord pending_rec_;
  std::uint64_t seq_ = 0;
  double last_time_ms_ = 0.0;
  BrokerSnapshot checkpoint_;

  // Publish-path working memory (DESIGN.md §10): every per-event buffer —
  // stab hits, interested set, completion targets, node lists, latencies,
  // serialized journal bytes, the local publish record — is reused across
  // commands, so steady-state publish performs zero heap allocations.
  // mutable: the read path (interested) shares the same scratch.
  mutable MatchScratch scratch_;
  StringStream journal_stream_;
  JournalRecord publish_rec_;

  // --- telemetry (set once by init_obs, then never null) ---------------
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<StopwatchClock> owned_trace_clock_;
  Clock* trace_clock_ = nullptr;
  TraceRing trace_;
  std::uint64_t trace_sample_ = 0;
  // One-shot fleet trace context (see set_trace_context).
  std::uint64_t trace_ctx_id_ = 0;
  std::int32_t trace_ctx_shard_ = -1;
  bool trace_ctx_armed_ = false;

  // Deterministic command counters (BrokerStats is a view over these).
  Counter* c_commands_ = nullptr;
  Counter* c_subscribes_ = nullptr;
  Counter* c_unsubscribes_ = nullptr;
  Counter* c_updates_ = nullptr;
  Counter* c_publishes_ = nullptr;
  Counter* c_events_matched_ = nullptr;
  Counter* c_multicast_events_ = nullptr;
  Counter* c_unicast_events_ = nullptr;
  Counter* c_messages_emitted_ = nullptr;
  Counter* c_wasted_ = nullptr;
  Counter* c_refreshes_ = nullptr;
  Counter* c_full_rebuilds_ = nullptr;
  Counter* c_journal_bytes_ = nullptr;
  Counter* c_refresh_by_churn_ = nullptr;
  Counter* c_refresh_by_waste_ = nullptr;
  Counter* c_replayed_ = nullptr;
  Counter* c_flush_failures_ = nullptr;
  Counter* c_flush_retries_ = nullptr;
  Counter* c_degraded_entries_ = nullptr;
  Counter* c_mutations_rejected_ = nullptr;
  Counter* c_heal_probes_ = nullptr;
  Counter* c_heal_successes_ = nullptr;
  Gauge* g_degraded_ = nullptr;
  Gauge* g_snapshot_bytes_ = nullptr;
  Gauge* g_recovery_progress_ = nullptr;
  Gauge* g_seq_ = nullptr;
  Gauge* g_live_subscribers_ = nullptr;
  Gauge* g_window_waste_ratio_ = nullptr;
  Gauge* g_waste_ratio_ = nullptr;
  Gauge* g_cost_per_event_ = nullptr;
  Histogram* h_interested_ = nullptr;
  Histogram* h_group_size_ = nullptr;
  Histogram* h_delivery_ms_ = nullptr;
  Histogram* h_queue_wait_ms_ = nullptr;
  Histogram* h_service_ms_ = nullptr;
  // Wall-clock (kRuntime) stage spans, indexed by PublishStage.
  Histogram* h_stage_[kNumPublishStages] = {};
};

}  // namespace pubsub
