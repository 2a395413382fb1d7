#include "serve/fleet.h"

#include <algorithm>
#include <bit>
#include <string>
#include <utility>

#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace pubsub {

std::size_t FleetShardOf(SubscriberId global_id, std::size_t num_shards) {
  // splitmix64 finalizer: stable in the id, so growing the population or
  // resharding a fresh fleet never remaps an existing subscriber.
  std::uint64_t z =
      static_cast<std::uint64_t>(global_id) + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return static_cast<std::size_t>(z % num_shards);
}

std::uint64_t FleetChainFold(std::uint64_t chain, std::uint64_t seq,
                             std::span<const SubscriberId> interested) {
  std::uint64_t h = chain ^ 0x9e3779b97f4a7c15ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(seq);
  mix(static_cast<std::uint64_t>(interested.size()));
  for (const SubscriberId id : interested) mix(static_cast<std::uint64_t>(id));
  return h;
}

namespace {

// The shard-count-invariant fleet digest: word-wise FNV-1a over the fleet
// seq, the match chain and the subscription table in global-id order,
// `row(g)` reading global id g's row from whichever table holds it.  The
// fleet and FleetOracle both digest through here, so equal digests at
// equal seq mean identical future match decisions at any shard count.
template <typename Row>
std::uint64_t FleetStateDigest(std::uint64_t seq, std::uint64_t match_chain,
                               const EventSpace& space, std::size_t count,
                               Row row) {
  std::uint64_t h = DigestWord(DigestWord(kDigestBasis, seq), match_chain);
  h = DigestSpace(h, space);
  h = DigestWord(h, count);
  for (std::size_t g = 0; g < count; ++g) h = DigestSubscriber(h, row(g));
  return h;
}

}  // namespace

// ----------------------------------------------------------- construction

BrokerFleet::BrokerFleet(Workload initial, const PublicationModel& pub,
                         const Graph& network, const FleetOptions& options,
                         ManualClock* clock)
    : BrokerFleet(RestoreTag{}, pub, network, options, clock) {
  map_subscribers(initial.num_subscribers());
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    Workload part;
    part.space = initial.space;
    for (const SubscriberId g : local_to_global_[k])
      part.subscribers.push_back(std::move(initial.subscribers[g]));
    shards_[k] = std::make_unique<Broker>(std::move(part), *pub_, *network_,
                                          shard_options(), clock_);
  }
  update_gauges();
}

BrokerFleet::BrokerFleet(RestoreTag, const PublicationModel& pub,
                         const Graph& network, const FleetOptions& options,
                         ManualClock* clock)
    : pub_(&pub), network_(&network), options_(options) {
  if (options_.num_shards < 1)
    throw std::invalid_argument("BrokerFleet: num_shards must be >= 1");
  if (clock == nullptr) {
    owned_clock_ = std::make_unique<ManualClock>();
    clock_ = owned_clock_.get();
  } else {
    clock_ = clock;
  }
  const std::size_t n = options_.num_shards;
  shards_.resize(n);
  shard_seq_.assign(n, 0);
  local_to_global_.resize(n);
  init_obs(n);
}

BrokerFleet::~BrokerFleet() = default;

void BrokerFleet::map_subscribers(std::size_t total) {
  // Global ids are handed out in order, and each takes the next slot of its
  // home shard.
  for (std::size_t g = global_to_local_.size(); g < total; ++g) {
    std::vector<SubscriberId>& slots =
        local_to_global_[FleetShardOf(static_cast<SubscriberId>(g),
                                      shards_.size())];
    global_to_local_.push_back(static_cast<SubscriberId>(slots.size()));
    slots.push_back(static_cast<SubscriberId>(g));
  }
}

BrokerOptions BrokerFleet::shard_options() const {
  BrokerOptions o = options_.broker;
  // Every shard owns a private registry: the registry is get-or-create by
  // name, so N shards sharing one would sum their counters into a single
  // series.  Shard metrics surface through shard(k).metrics().
  o.obs.metrics = nullptr;
  // The fleet owns trace sampling: shard seqs differ from fleet seqs, so a
  // shard sampling on its own would stamp trace ids no fleet span shares.
  // Sampled fleet records arm each shard via Broker::set_trace_context
  // instead.
  o.obs.trace_sample = 0;
  return o;
}

void BrokerFleet::init_obs(std::size_t num_shards) {
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  if (options_.trace_clock != nullptr) {
    trace_clock_ = options_.trace_clock;
  } else {
    owned_trace_clock_ = std::make_unique<StopwatchClock>();
    trace_clock_ = owned_trace_clock_.get();
  }
  MetricsRegistry& m = *metrics_;
  c_commands_ = m.counter("fleet_commands_total",
                          "commands applied by the fleet (all types)");
  c_publishes_ = m.counter("fleet_publishes_total", "publish fan-outs merged");
  c_churn_ = m.counter("fleet_churn_total",
                       "subscribe/unsubscribe/update commands routed");
  c_stalls_ = m.counter("fleet_stalls_total",
                        "records left pending on a degraded shard");
  c_heals_ = m.counter("fleet_heals_total",
                       "stalled records completed through heal()");
  g_shards_ = m.gauge("fleet_shards", "configured shard count");
  g_seq_ = m.gauge("fleet_seq", "last fleet sequence number applied");
  g_live_ = m.gauge("fleet_live_subscribers",
                    "non-tombstoned subscribers across all shards");
  g_stalled_ = m.gauge("fleet_stalled",
                       "1 while a record is pending on a degraded shard");
  h_interested_ =
      m.histogram("fleet_interested_size",
                  "merged interested-set size per publish",
                  ExponentialBuckets(1.0, 2.0, 12));
  // Wall time, not state: fan-out latency depends on thread count and
  // scheduling, so it is excluded from deterministic scrapes.
  h_fanout_ms_ = m.histogram("fleet_fanout_ms",
                             "publish fan-out + merge wall time (ms)",
                             ExponentialBuckets(0.001, 4.0, 12),
                             MetricStability::kRuntime);
  trace_ = TraceRing(options_.broker.obs.trace_capacity);
  trace_sample_ = options_.broker.obs.trace_sample;
  g_shard_seq_.resize(num_shards);
  g_shard_subs_.resize(num_shards);
  g_shard_degraded_.resize(num_shards);
  h_shard_publish_.resize(num_shards);
  for (std::size_t k = 0; k < num_shards; ++k) {
    const std::string shard = std::to_string(k);
    g_shard_seq_[k] = m.gauge(LabeledName("fleet_shard_seq", "shard", shard),
                              "shard broker sequence number");
    g_shard_subs_[k] =
        m.gauge(LabeledName("fleet_shard_subscribers", "shard", shard),
                "subscriber slots owned by the shard (tombstones included)");
    g_shard_degraded_[k] =
        m.gauge(LabeledName("fleet_shard_degraded", "shard", shard),
                "1 while the shard broker is in degraded read-only mode");
    // Wall time per shard publish apply — the watchdog's skew input.
    h_shard_publish_[k] =
        m.histogram(LabeledName("fleet_shard_publish_ms", "shard", shard),
                    "per-shard publish apply wall time (ms)",
                    ExponentialBuckets(0.001, 4.0, 12),
                    MetricStability::kRuntime);
  }
}

// ------------------------------------------------------------ command API

void BrokerFleet::validate(const JournalRecord& rec) const {
  if (rec.seq != seq_ + 1)
    throw std::runtime_error(
        "BrokerFleet::apply: out-of-order record (expected seq " +
        std::to_string(seq_ + 1) + ", got " + std::to_string(rec.seq) + ")");
  // Mirror Broker::validate_command at the fleet boundary: a command a
  // shard would reject must fail before the write-ahead append, or the
  // fleet journal carries a record replay can never apply.
  if (rec.cmd.type == BrokerCommandType::kUnsubscribe ||
      rec.cmd.type == BrokerCommandType::kUpdate) {
    if (rec.cmd.subscriber < 0 ||
        static_cast<std::size_t>(rec.cmd.subscriber) >= num_subscribers())
      throw std::out_of_range("BrokerFleet: unknown subscriber id " +
                              std::to_string(rec.cmd.subscriber));
  } else {
    network_->check_node(rec.cmd.node, "BrokerFleet");
    if (rec.cmd.type == BrokerCommandType::kPublish)
      space().check_lattice_point(rec.cmd.point, "BrokerFleet");
  }
}

void BrokerFleet::journal_fleet_record(const JournalRecord& rec) {
  if (fleet_journal_ == nullptr) return;
  record_stream_.reset();
  WriteJournalRecord(record_stream_, rec, dims());
  const std::string& text = record_stream_.str();
  fleet_journal_->write(text.data(),
                        static_cast<std::streamsize>(text.size()));
  fleet_journal_->flush();
  if (!*fleet_journal_)
    throw std::runtime_error("BrokerFleet: fleet journal write failed at seq " +
                             std::to_string(rec.seq));
}

FleetPublishOutcome BrokerFleet::apply(const JournalRecord& rec) {
  if (pending_active_)
    throw FleetDegradedError(
        "fleet is stalled: a record is pending on a degraded shard; heal() "
        "must complete it before new mutations");
  validate(rec);
  // The fleet seq is the trace id: every span this record produces — here
  // and in the shard lanes — links back to it.
  cur_trace_id_ =
      trace_sample_ > 0 && rec.seq % trace_sample_ == 0 ? rec.seq : 0;
  // Write-ahead at the fleet level: the global record is on the routing
  // log before any shard sees its re-stamped copy.  Plain stream — the
  // per-shard WALs underneath are the durability seams the fail points
  // exercise; this log only replays routing.
  journal_fleet_record(rec);
  if (rec.cmd.type == BrokerCommandType::kPublish) return fan_out_publish(rec);
  route_churn(rec);
  FleetPublishOutcome out;
  out.seq = seq_;
  return out;
}

void BrokerFleet::route_churn(const JournalRecord& rec) {
  const std::size_t n = shards_.size();
  std::size_t k = 0;
  JournalRecord srec = rec;
  if (rec.cmd.type == BrokerCommandType::kSubscribe) {
    // The new global id is the next one; its hash picks the home shard,
    // where it lands in the next local slot.
    k = FleetShardOf(static_cast<SubscriberId>(num_subscribers()), n);
  } else {
    k = FleetShardOf(rec.cmd.subscriber, n);
    srec.cmd.subscriber = global_to_local_[rec.cmd.subscriber];
  }
  srec.seq = shard_seq_[k] + 1;
  if (cur_trace_id_ != 0)
    shards_[k]->set_trace_context(cur_trace_id_, static_cast<std::int32_t>(k));
  try {
    shards_[k]->apply(srec);
  } catch (const BrokerDegradedError&) {
    // The shard lost journal durability mid-append; the fleet record is
    // pending until heal() finishes it (the shard seq was not consumed).
    pending_active_ = true;
    pending_rec_ = rec;
    pending_applied_.assign(n, 1);
    pending_applied_[k] = 0;
    Inc(c_stalls_);
    update_gauges();
    throw FleetDegradedError("fleet stalled: shard " + std::to_string(k) +
                             " degraded while applying seq " +
                             std::to_string(rec.seq));
  }
  shard_seq_[k] += 1;
  finish_churn(rec);
}

void BrokerFleet::finish_churn(const JournalRecord& rec) {
  // The home shard holds the change; a subscribe also took the next global
  // id, whose slot the partition rule names.
  if (rec.cmd.type == BrokerCommandType::kSubscribe)
    map_subscribers(num_subscribers() + 1);
  seq_ = rec.seq;
  Inc(c_commands_);
  Inc(c_churn_);
  update_gauges();
}

FleetPublishOutcome BrokerFleet::fan_out_publish(const JournalRecord& rec) {
  const std::size_t n = shards_.size();
  fan_recs_.resize(n);
  fan_outcomes_.assign(n, PublishOutcome{});
  fan_errors_.assign(n, nullptr);
  for (std::size_t k = 0; k < n; ++k) {
    fan_recs_[k] = rec;
    fan_recs_[k].seq = shard_seq_[k] + 1;
  }
  const std::size_t need = (num_subscribers() + 63) / 64;
  if (words_.size() < need) words_.resize(need, 0);
  word_lo_ = words_.size();
  word_hi_ = 0;
  pending_shards_matched_ = 0;

  // Slow-shard drill: evaluated on the serial path (one eval per publish,
  // so *COUNT/^SKIP schedules stay deterministic under any --threads) and
  // applied to shard 0's observed latency below.
  double inject_delay_ms = 0.0;
  {
    FailPoints& fp = FailPoints::Instance();
    if (fp.active()) {
      const FailPointDecision d = fp.eval("fleet.shard.publish");
      if (d.action == FailAction::kDelay)
        inject_delay_ms = static_cast<double>(d.arg);
    }
  }

  // Fan out to every shard.  Each lane touches only shard-disjoint state
  // (the shard broker, its journal, its outcome and error slots), and the
  // merge below walks shards in index order — so the fleet's durable state
  // is bit-identical at any --threads.  Bodies must not throw: exceptions
  // are captured per shard and re-raised in shard order after the join.
  const double fan_start = trace_clock_->now_ms();
  ParallelForChunks(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      const double t0 = trace_clock_->now_ms();
      if (cur_trace_id_ != 0)
        shards_[k]->set_trace_context(cur_trace_id_,
                                      static_cast<std::int32_t>(k));
      try {
        fan_outcomes_[k] = shards_[k]->apply(fan_recs_[k]);
      } catch (...) {
        fan_errors_[k] = std::current_exception();
      }
      double shard_ms = trace_clock_->now_ms() - t0;
      if (k == 0) shard_ms += inject_delay_ms;
      Observe(h_shard_publish_[k], shard_ms);
    }
  });
  const double fan_ms = trace_clock_->now_ms() - fan_start;
  Observe(h_fanout_ms_, fan_ms);
  if (cur_trace_id_ != 0)
    trace_.record({cur_trace_id_, rec.seq, -1, PublishStage::kFleetFanOut,
                   fan_start, fan_ms});

  // An injected crash (or any non-degraded failure) on any shard is
  // process death: some shards applied, some did not, and only recovery
  // from the durable files reconciles them.  Degraded shards, by contrast,
  // are a survivable stall.
  for (std::size_t k = 0; k < n; ++k) {
    if (fan_errors_[k] == nullptr) continue;
    try {
      std::rethrow_exception(fan_errors_[k]);
    } catch (const BrokerDegradedError&) {
      // handled below
    }
  }

  bool any_degraded = false;
  pending_applied_.assign(n, 1);
  for (std::size_t k = 0; k < n; ++k) {
    if (fan_errors_[k] != nullptr) {
      any_degraded = true;
      pending_applied_[k] = 0;
      continue;
    }
    shard_seq_[k] += 1;
    if (!fan_outcomes_[k].interested_set.empty()) ++pending_shards_matched_;
    scatter(k, fan_outcomes_[k].interested_set);
  }
  if (any_degraded) {
    pending_active_ = true;
    pending_rec_ = rec;
    Inc(c_stalls_);
    update_gauges();
    throw FleetDegradedError(
        "fleet stalled: a shard degraded during the fan-out of seq " +
        std::to_string(rec.seq));
  }
  return finish_publish(rec);
}

void BrokerFleet::scatter(std::size_t k,
                          std::span<const SubscriberId> local_ids) {
  const std::vector<SubscriberId>& map = local_to_global_[k];
  for (const SubscriberId lid : local_ids) {
    const std::size_t g = static_cast<std::size_t>(map[lid]);
    const std::size_t w = g >> 6;
    words_[w] |= 1ull << (g & 63u);
    word_lo_ = std::min(word_lo_, w);
    word_hi_ = std::max(word_hi_, w);
  }
}

FleetPublishOutcome BrokerFleet::finish_publish(const JournalRecord& rec) {
  // Counting-sort union: OR'd bits emit in ascending global id order, so
  // the merged set is independent of shard count and fan-out interleaving.
  const double merge_start = trace_clock_->now_ms();
  merged_.clear();
  if (word_lo_ <= word_hi_) {
    for (std::size_t w = word_lo_; w <= word_hi_; ++w) {
      std::uint64_t bits = words_[w];
      words_[w] = 0;
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        merged_.push_back(static_cast<SubscriberId>((w << 6) |
                                                    static_cast<std::size_t>(b)));
      }
    }
  }
  const double merge_end = trace_clock_->now_ms();
  if (cur_trace_id_ != 0)
    trace_.record({cur_trace_id_, rec.seq, -1, PublishStage::kFleetMerge,
                   merge_start, merge_end - merge_start});
  match_chain_ = FleetChainFold(match_chain_, rec.seq, merged_);
  seq_ = rec.seq;
  Inc(c_commands_);
  Inc(c_publishes_);
  Observe(h_interested_, static_cast<double>(merged_.size()));
  update_gauges();
  FleetPublishOutcome out;
  out.seq = seq_;
  out.interested = std::span<const SubscriberId>(merged_);
  out.shards_matched = pending_shards_matched_;
  if (cur_trace_id_ != 0)
    trace_.record({cur_trace_id_, rec.seq, -1, PublishStage::kFleetDeliver,
                   merge_end, trace_clock_->now_ms() - merge_end});
  return out;
}

// -------------------------------------------------------- degraded shards

bool BrokerFleet::heal() {
  bool all_ok = true;
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    if (pending_active_ && pending_applied_[k] == 0) {
      // The probe re-runs the interrupted append; success means the shard
      // finished the pending record and its seq advanced.
      if (!shards_[k]->heal_probe()) {
        all_ok = false;
        continue;
      }
      shard_seq_[k] += 1;
      pending_applied_[k] = 1;
      if (pending_rec_.cmd.type == BrokerCommandType::kPublish) {
        // Publishes do not mutate the subscription table, so the late
        // query reproduces the exact set the stalled fan-out would have
        // merged.
        const std::vector<SubscriberId> late =
            shards_[k]->interested(pending_rec_.cmd.point);
        if (!late.empty()) ++pending_shards_matched_;
        scatter(k, late);
      }
    } else if (!shards_[k]->heal_probe()) {
      // Covers degradation outside a stalled record (e.g. a failed journal
      // header append, which consumes no seq).
      all_ok = false;
    }
  }
  if (pending_active_ &&
      std::find(pending_applied_.begin(), pending_applied_.end(), 0) ==
          pending_applied_.end()) {
    pending_active_ = false;
    // Re-derive the pending record's trace id: a sampled publish that
    // stalled still finishes its fleet merge/deliver spans here.
    cur_trace_id_ = trace_sample_ > 0 && pending_rec_.seq % trace_sample_ == 0
                        ? pending_rec_.seq
                        : 0;
    if (pending_rec_.cmd.type == BrokerCommandType::kPublish)
      finish_publish(pending_rec_);
    else
      finish_churn(pending_rec_);
    Inc(c_heals_);
  }
  update_gauges();
  return all_ok && !pending_active_;
}

// ------------------------------------------------------------------ state

std::size_t BrokerFleet::live_subscribers() const {
  std::size_t live = 0;
  for (const std::unique_ptr<Broker>& shard : shards_)
    live += shard->live_subscribers();
  return live;
}

std::uint64_t BrokerFleet::state_digest() const {
  return FleetStateDigest(
      seq_, match_chain_, space(), num_subscribers(),
      [this](std::size_t g) -> const Subscriber& {
        const std::size_t k =
            FleetShardOf(static_cast<SubscriberId>(g), shards_.size());
        return shards_[k]->workload().subscribers[global_to_local_[g]];
      });
}

std::vector<SubscriberId> BrokerFleet::interested(const Point& event) const {
  space().check_lattice_point(event, "BrokerFleet::interested");
  // Cold read path, shard by shard.
  std::vector<SubscriberId> out;
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    for (const SubscriberId lid : shards_[k]->interested(event))
      out.push_back(local_to_global_[k][lid]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ------------------------------------------------------------- durability

void BrokerFleet::set_fleet_journal(std::ostream* sink, bool write_header) {
  fleet_journal_ = sink;
  if (sink == nullptr || !write_header) return;
  WriteJournalHeader(*sink, dims());
  sink->flush();
  if (!*sink)
    throw std::runtime_error("BrokerFleet: fleet journal header write failed");
}

void BrokerFleet::set_shard_journal(std::size_t k, std::ostream* sink,
                                    bool write_header) {
  shards_[k]->set_journal(sink, write_header);
}

FleetManifest BrokerFleet::checkpoint() const {
  // A stalled fleet is partially applied: some shards already hold the
  // pending record, the fleet seq does not.  A manifest cut there would
  // double-apply the record on replay — refuse instead (the serve loop
  // skips checkpoints while stalled).
  if (pending_active_)
    throw std::logic_error("BrokerFleet::checkpoint: fleet is stalled");
  FleetManifest m;
  m.seq = seq_;
  m.match_chain = match_chain_;
  m.shard_seqs = shard_seq_;
  return m;
}

std::unique_ptr<BrokerFleet> BrokerFleet::Recover(
    const FleetManifest& manifest,
    std::span<const BrokerSnapshot> shard_snapshots,
    const std::vector<std::vector<JournalRecord>>& shard_journals,
    const PublicationModel& pub, const Graph& network,
    const FleetOptions& options, ManualClock* clock) {
  const std::size_t n = manifest.shard_seqs.size();
  if (n == 0)
    throw std::invalid_argument("BrokerFleet::Recover: empty manifest");
  if (shard_snapshots.size() != n || shard_journals.size() != n)
    throw std::invalid_argument(
        "BrokerFleet::Recover: manifest names " + std::to_string(n) +
        " shards, got " + std::to_string(shard_snapshots.size()) +
        " snapshots and " + std::to_string(shard_journals.size()) +
        " journals");
  FleetOptions opts = options;
  opts.num_shards = n;
  std::unique_ptr<BrokerFleet> fleet(
      new BrokerFleet(RestoreTag{}, pub, network, opts, clock));

  std::size_t total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    // The manifest's shard seq T_k is the durable truth: the journal may
    // run past it (records from a later, partially checkpointed epoch are
    // the serve loop's to replay through the fleet tail).
    std::vector<JournalRecord> recs;
    for (const JournalRecord& rec : shard_journals[k])
      if (rec.seq <= manifest.shard_seqs[k]) recs.push_back(rec);
    std::unique_ptr<Broker> b =
        Broker::Recover(shard_snapshots[k], recs, pub, network,
                        fleet->shard_options(), fleet->clock_);
    if (b->seq() != manifest.shard_seqs[k])
      throw std::runtime_error(
          "BrokerFleet::Recover: shard " + std::to_string(k) +
          " reached seq " + std::to_string(b->seq()) + ", manifest says " +
          std::to_string(manifest.shard_seqs[k]));
    total += b->workload().num_subscribers();
    fleet->shard_seq_[k] = b->seq();
    fleet->shards_[k] = std::move(b);
  }

  // The partition rule rebuilds the id maps from the total, and every
  // shard must hold exactly the slots it gives that shard.
  fleet->map_subscribers(total);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t held = fleet->shards_[k]->workload().num_subscribers();
    if (held != fleet->local_to_global_[k].size())
      throw std::runtime_error(
          "BrokerFleet::Recover: shard " + std::to_string(k) + " holds " +
          std::to_string(held) + " slots, the partition of " +
          std::to_string(total) + " gives it " +
          std::to_string(fleet->local_to_global_[k].size()));
  }
  fleet->seq_ = manifest.seq;
  fleet->match_chain_ = manifest.match_chain;
  fleet->update_gauges();
  return fleet;
}

// -------------------------------------------------------------- plumbing

void BrokerFleet::update_gauges() {
  Set(g_shards_, static_cast<double>(shards_.size()));
  Set(g_seq_, static_cast<double>(seq_));
  Set(g_live_, static_cast<double>(live_subscribers()));
  Set(g_stalled_, pending_active_ ? 1.0 : 0.0);
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    Set(g_shard_seq_[k], static_cast<double>(shard_seq_[k]));
    Set(g_shard_subs_[k], static_cast<double>(local_to_global_[k].size()));
    Set(g_shard_degraded_[k], shards_[k]->degraded() ? 1.0 : 0.0);
  }
}

// -------------------------------------------------------------- telemetry

std::vector<TraceSpan> BrokerFleet::collect_spans() const {
  std::vector<TraceSpan> out = trace_.spans();
  for (const std::unique_ptr<Broker>& shard : shards_) {
    const std::vector<TraceSpan> s = shard->trace().spans();
    out.insert(out.end(), s.begin(), s.end());
  }
  // Group each causal tree contiguously; stable so per-ring recording
  // order breaks the remaining ties.
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceSpan& a, const TraceSpan& b) {
                     if (a.trace_id != b.trace_id) return a.trace_id < b.trace_id;
                     if (a.shard != b.shard) return a.shard < b.shard;
                     if (a.stage != b.stage) return a.stage < b.stage;
                     return a.seq < b.seq;
                   });
  return out;
}

std::uint64_t BrokerFleet::trace_recorded() const {
  std::uint64_t total = trace_.recorded();
  for (const std::unique_ptr<Broker>& shard : shards_)
    total += shard->trace().recorded();
  return total;
}

std::uint64_t BrokerFleet::trace_dropped() const {
  std::uint64_t total = trace_.dropped();
  for (const std::unique_ptr<Broker>& shard : shards_)
    total += shard->trace().dropped();
  return total;
}

std::vector<const Histogram*> BrokerFleet::shard_publish_histograms() const {
  return {h_shard_publish_.begin(), h_shard_publish_.end()};
}

Broker& BrokerFleet::shard_for_fault_injection(std::size_t k) {
  return *shards_[k];
}

MetricsSnapshot FleetScrape(const BrokerFleet& fleet, bool include_runtime) {
  MetricsSnapshot snap = fleet.metrics().scrape(include_runtime);
  for (std::size_t k = 0; k < fleet.num_shards(); ++k)
    snap.merge_labeled(fleet.shard(k).metrics().scrape(include_runtime),
                       "shard", std::to_string(k));
  return snap;
}

std::vector<ShardAuditSample> CollectShardAudit(const BrokerFleet& fleet) {
  std::vector<ShardAuditSample> out;
  out.reserve(fleet.num_shards());
  for (std::size_t k = 0; k < fleet.num_shards(); ++k) {
    const Broker& b = fleet.shard(k);
    out.push_back({static_cast<std::int32_t>(k), b.seq(), fleet.shard_seq(k),
                   b.state_digest()});
  }
  return out;
}

// ----------------------------------------------------------- FleetOracle

FleetOracle::FleetOracle(Workload initial, const PublicationModel& pub,
                         const Graph& network, const BrokerOptions& options,
                         Clock* clock)
    : broker_(std::move(initial), pub, network, options, clock) {}

void FleetOracle::apply(const JournalRecord& rec) {
  const bool is_publish = rec.cmd.type == BrokerCommandType::kPublish;
  const PublishOutcome out = broker_.apply(rec);
  if (is_publish) {
    chain_ = FleetChainFold(chain_, rec.seq, out.interested_set);
    last_ = out.interested_set;
  }
}

std::uint64_t FleetOracle::state_digest() const {
  const Workload& table = broker_.workload();
  return FleetStateDigest(broker_.seq(), chain_, table.space,
                          table.num_subscribers(),
                          [&table](std::size_t g) -> const Subscriber& {
                            return table.subscribers[g];
                          });
}

}  // namespace pubsub
