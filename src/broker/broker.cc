#include "broker/broker.h"

#include <algorithm>
#include <bit>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "io/serialize.h"
#include "util/failpoint.h"

namespace pubsub {

Broker::Broker(Workload initial, const PublicationModel& pub,
               const Graph& network, const BrokerOptions& options, Clock* clock)
    : pub_(&pub),
      network_(&network),
      options_(options),
      policy_(options.refresh),
      trace_(options.obs.trace_capacity) {
  for (const Subscriber& s : initial.subscribers)
    network.check_node(s.node, "Broker");
  init_obs(options);
  mgr_ = std::make_unique<GroupManager>(std::move(initial), pub, options_.group);
  runtime_ =
      std::make_unique<DeliveryRuntime>(network, RuntimeParams{}, metrics_);
  if (clock == nullptr) {
    owned_clock_ = std::make_unique<ManualClock>();
    clock = owned_clock_.get();
  }
  clock_ = clock;
  bootstrap_index();
  update_derived_gauges();
  capture_checkpoint();
}

Broker::Broker(RestoreTag, const BrokerSnapshot& snapshot,
               const PublicationModel& pub, const Graph& network,
               const BrokerOptions& options, Clock* clock)
    : pub_(&pub),
      network_(&network),
      options_(options),
      policy_(options.refresh),
      trace_(options.obs.trace_capacity) {
  if (static_cast<std::size_t>(snapshot.num_groups) != options.group.num_groups)
    throw std::invalid_argument(
        "Broker: snapshot group count (" + std::to_string(snapshot.num_groups) +
        ") does not match options (" +
        std::to_string(options.group.num_groups) + ")");
  for (const Subscriber& s : snapshot.workload.subscribers)
    network.check_node(s.node, "Broker");
  init_obs(options);
  // Adopt the snapshot's clustering verbatim (no re-clustering) along with
  // its warm/cold bookkeeping.
  mgr_ = std::make_unique<GroupManager>(
      snapshot.workload, pub, options_.group, snapshot.assignment,
      static_cast<std::size_t>(snapshot.churn_since_full_build));
  runtime_ =
      std::make_unique<DeliveryRuntime>(network, RuntimeParams{}, metrics_);
  runtime_->restore_queue_state(snapshot.queue_state);
  if (clock == nullptr) {
    owned_clock_ = std::make_unique<ManualClock>();
    clock = owned_clock_.get();
  }
  clock_ = clock;
  seq_ = snapshot.seq;
  seed_stats(snapshot.stats);
  bootstrap_index();
  update_derived_gauges();
  checkpoint_ = snapshot;
}

void Broker::init_obs(const BrokerOptions& options) {
  metrics_ = options.obs.metrics;
  if (metrics_ == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  // GroupManager and the matchers it builds share this broker's registry.
  options_.group.metrics = metrics_;
  trace_clock_ = options.obs.trace_clock;
  if (trace_clock_ == nullptr) {
    owned_trace_clock_ = std::make_unique<StopwatchClock>();
    trace_clock_ = owned_trace_clock_.get();
  }
  trace_sample_ = options.obs.trace_sample;

  MetricsRegistry& r = *metrics_;
  c_commands_ = r.counter("broker_commands_total", "commands applied");
  c_subscribes_ = r.counter("broker_subscribe_total", "subscribe commands");
  c_unsubscribes_ =
      r.counter("broker_unsubscribe_total", "unsubscribe commands");
  c_updates_ = r.counter("broker_update_total", "update commands");
  c_publishes_ = r.counter("broker_publish_total", "publish commands");
  c_events_matched_ = r.counter("broker_events_matched_total",
                                "publishes with >= 1 interested subscriber");
  c_multicast_events_ = r.counter("broker_multicast_events_total",
                                  "publishes delivered via a multicast group");
  c_unicast_events_ = r.counter("broker_unicast_events_total",
                                "publishes delivered purely by unicast");
  c_messages_emitted_ = r.counter(
      "broker_messages_emitted_total",
      "group deliveries + unicast messages across all publishes");
  c_wasted_ = r.counter("broker_wasted_deliveries_total",
                        "group deliveries to uninterested subscribers");
  c_refreshes_ = r.counter("broker_refresh_total", "re-clustering refreshes");
  c_full_rebuilds_ = r.counter("broker_full_rebuild_total",
                               "refreshes that fell back to a cold build");
  c_journal_bytes_ = r.counter("broker_journal_bytes_total",
                               "serialized bytes of the journal stream");
  c_refresh_by_churn_ =
      r.counter(LabeledName("broker_refresh_trigger_total", "cause", "churn"),
                "refreshes fired by the churned-fraction trigger");
  c_refresh_by_waste_ =
      r.counter(LabeledName("broker_refresh_trigger_total", "cause", "waste"),
                "refreshes fired by the waste-ratio trigger");
  c_replayed_ = r.counter("broker_recovery_replayed_records",
                          "journal tail records applied at recovery");
  c_flush_failures_ =
      r.counter("broker_journal_flush_failures_total",
                "journal append/flush attempts that failed");
  c_flush_retries_ = r.counter("broker_journal_flush_retries_total",
                               "backoff retries of failed journal appends");
  c_degraded_entries_ =
      r.counter("broker_degraded_entered_total",
                "times the broker entered read-only degraded mode");
  c_mutations_rejected_ =
      r.counter("broker_mutations_rejected_total",
                "commands rejected while in degraded mode");
  // Heal probes are timer-driven (serve loop), not journaled commands, so
  // their counts are runtime-only: a recovered broker has no probe history.
  c_heal_probes_ = r.counter("broker_heal_probe_total",
                             "degraded-mode heal probes attempted",
                             MetricStability::kRuntime);
  c_heal_successes_ = r.counter("broker_heal_success_total",
                                "heal probes that cleared degraded mode",
                                MetricStability::kRuntime);
  g_degraded_ =
      r.gauge("broker_degraded", "1 while in read-only degraded mode, else 0");
  g_snapshot_bytes_ = r.gauge("broker_recovery_snapshot_bytes",
                              "size of the bootstrap snapshot");
  g_recovery_progress_ = r.gauge(
      "broker_recovery_progress",
      "fraction of the journal tail replayed (1 once recovery finished)");
  g_seq_ = r.gauge("broker_seq", "last applied sequence number");
  g_live_subscribers_ = r.gauge(
      "broker_live_subscribers",
      "subscribers whose interest, clipped to the domain, is non-empty");
  g_window_waste_ratio_ =
      r.gauge("broker_window_waste_ratio",
              "wasted/emitted over the current refresh-policy window");
  g_waste_ratio_ =
      r.gauge("broker_waste_ratio", "cumulative wasted/emitted messages");
  g_cost_per_event_ = r.gauge("broker_cost_per_event",
                              "cumulative messages emitted per publish");
  h_interested_ =
      r.histogram("broker_interested_count",
                  "interested subscribers per publish",
                  ExponentialBuckets(1.0, 2.0, 12));
  h_group_size_ = r.histogram("broker_group_size",
                              "members of the matched multicast group",
                              ExponentialBuckets(1.0, 2.0, 12));
  h_delivery_ms_ = r.histogram(
      "broker_delivery_latency_ms",
      "modelled publication->subscriber latency (per target)",
      ExponentialBuckets(0.01, 2.0, 16));
  h_queue_wait_ms_ =
      r.histogram("broker_queue_wait_ms", "modelled broker queueing delay",
                  ExponentialBuckets(0.01, 2.0, 16));
  h_service_ms_ =
      r.histogram("broker_service_ms", "modelled broker service time",
                  ExponentialBuckets(0.01, 2.0, 16));
  for (std::size_t s = 0; s < kNumPublishStages; ++s)
    h_stage_[s] = r.histogram(
        LabeledName("broker_stage_latency_ms", "stage",
                    StageName(static_cast<PublishStage>(s))),
        "trace-clock wall time per publish-path stage",
        ExponentialBuckets(0.001, 4.0, 12), MetricStability::kRuntime);
}

BrokerStats Broker::stats() const {
  BrokerStats s;
  s.commands_applied = c_commands_->value();
  s.subscribes = c_subscribes_->value();
  s.unsubscribes = c_unsubscribes_->value();
  s.updates = c_updates_->value();
  s.publishes = c_publishes_->value();
  s.events_matched = c_events_matched_->value();
  s.multicast_events = c_multicast_events_->value();
  s.unicast_events = c_unicast_events_->value();
  s.messages_emitted = c_messages_emitted_->value();
  s.wasted_deliveries = c_wasted_->value();
  s.refreshes = c_refreshes_->value();
  s.full_rebuilds = c_full_rebuilds_->value();
  s.journal_bytes = c_journal_bytes_->value();
  s.snapshot_bytes = static_cast<std::uint64_t>(g_snapshot_bytes_->value());
  s.replayed_records = c_replayed_->value();
  s.journal_flush_failures = c_flush_failures_->value();
  s.journal_flush_retries = c_flush_retries_->value();
  s.degraded_entries = c_degraded_entries_->value();
  s.mutations_rejected = c_mutations_rejected_->value();
  return s;
}

void Broker::seed_stats(const BrokerStats& s) {
  c_commands_->reset(s.commands_applied);
  c_subscribes_->reset(s.subscribes);
  c_unsubscribes_->reset(s.unsubscribes);
  c_updates_->reset(s.updates);
  c_publishes_->reset(s.publishes);
  c_events_matched_->reset(s.events_matched);
  c_multicast_events_->reset(s.multicast_events);
  c_unicast_events_->reset(s.unicast_events);
  c_messages_emitted_->reset(s.messages_emitted);
  c_wasted_->reset(s.wasted_deliveries);
  c_refreshes_->reset(s.refreshes);
  c_full_rebuilds_->reset(s.full_rebuilds);
  c_journal_bytes_->reset(s.journal_bytes);
  // Recovery provenance describes *this* instance's bootstrap, not the
  // snapshotted broker's; Recover() fills it in.
  g_snapshot_bytes_->set(0.0);
  c_replayed_->reset(0);
  // Fault provenance, by contrast, is history worth keeping: an operator
  // recovering a degraded broker should still see what storage did to it
  // (`pubsub_cli stats` reads exactly these).
  c_flush_failures_->reset(s.journal_flush_failures);
  c_flush_retries_->reset(s.journal_flush_retries);
  c_degraded_entries_->reset(s.degraded_entries);
  c_mutations_rejected_->reset(s.mutations_rejected);
}

void Broker::update_derived_gauges() {
  Set(g_seq_, static_cast<double>(seq_));
  Set(g_live_subscribers_, static_cast<double>(live_subscribers()));
  const std::uint64_t emitted = policy_.window_emitted();
  Set(g_window_waste_ratio_,
      emitted == 0 ? 0.0
                   : static_cast<double>(policy_.window_wasted()) /
                         static_cast<double>(emitted));
  const std::uint64_t pubs = c_publishes_->value();
  const std::uint64_t msgs = c_messages_emitted_->value();
  Set(g_cost_per_event_,
      pubs == 0 ? 0.0 : static_cast<double>(msgs) / static_cast<double>(pubs));
  Set(g_waste_ratio_, msgs == 0 ? 0.0
                                : static_cast<double>(c_wasted_->value()) /
                                      static_cast<double>(msgs));
}

// Index the subscription table, tombstones included, in fresh columns.  A
// fresh broker and a recovered one both build their index here; the columns
// are a function of the table alone, whatever churn reached it.
void Broker::bootstrap_index() {
  const Workload& table = mgr_->workload();
  lattice_ = LatticeIndex(table.space, table.num_subscribers());
  for (std::size_t i = 0; i < table.num_subscribers(); ++i)
    lattice_.insert(static_cast<SubscriberId>(i),
                    table.subscribers[i].interest);
}

std::unique_ptr<Broker> Broker::Recover(const BrokerSnapshot& snapshot,
                                        std::span<const JournalRecord> journal,
                                        const PublicationModel& pub,
                                        const Graph& network,
                                        const BrokerOptions& options,
                                        Clock* clock) {
  std::unique_ptr<Broker> b(
      new Broker(RestoreTag{}, snapshot, pub, network, options, clock));
  {
    std::ostringstream ss;
    WriteBrokerSnapshot(ss, snapshot);
    Set(b->g_snapshot_bytes_, static_cast<double>(ss.str().size()));
  }
  b->checkpoint_.stats = b->stats();
  std::size_t tail = 0;
  for (const JournalRecord& rec : journal)
    if (rec.seq > snapshot.seq) ++tail;
  std::size_t replayed = 0;
  FailPoints& fp = FailPoints::Instance();
  for (const JournalRecord& rec : journal) {
    if (rec.seq <= snapshot.seq) continue;  // already in the snapshot
    if (fp.active() && fp.eval("recover.replay").action != FailAction::kOff)
      throw InjectedCrash("recover.replay");
    if (rec.seq != b->seq_ + 1)
      throw std::runtime_error("Broker::Recover: journal gap (expected seq " +
                               std::to_string(b->seq_ + 1) + ", got " +
                               std::to_string(rec.seq) + ")");
    Inc(b->c_replayed_);
    b->apply_record(rec);
    ++replayed;
    Set(b->g_recovery_progress_, static_cast<double>(replayed) /
                                     static_cast<double>(tail));
  }
  Set(b->g_recovery_progress_, 1.0);
  return b;
}

void Broker::set_journal(std::ostream* sink, bool write_header) {
  journal_.reset();
  if (sink == nullptr) return;
  journal_ = std::make_unique<StreamSink>(*sink, "journal");
  if (write_header) {
    std::ostringstream ss;
    WriteJournalHeader(ss, mgr_->workload().space.dims());
    journal_append(ss.str(), nullptr);
  }
}

JournalRecord Broker::make_record(BrokerCommand cmd) {
  JournalRecord rec;
  rec.seq = seq_ + 1;
  cmd.time_ms = clock_->now_ms();
  rec.cmd = std::move(cmd);
  return rec;
}

SubscriberId Broker::subscribe(NodeId node, const Rect& interest) {
  BrokerCommand cmd;
  cmd.type = BrokerCommandType::kSubscribe;
  cmd.node = node;
  cmd.interest = interest;
  apply_record(make_record(std::move(cmd)));
  return static_cast<SubscriberId>(mgr_->workload().num_subscribers() - 1);
}

void Broker::unsubscribe(SubscriberId id) {
  BrokerCommand cmd;
  cmd.type = BrokerCommandType::kUnsubscribe;
  cmd.subscriber = id;
  apply_record(make_record(std::move(cmd)));
}

void Broker::update(SubscriberId id, const Rect& interest) {
  BrokerCommand cmd;
  cmd.type = BrokerCommandType::kUpdate;
  cmd.subscriber = id;
  cmd.interest = interest;
  apply_record(make_record(std::move(cmd)));
}

PublishOutcome Broker::publish(NodeId origin, const Point& event) {
  // Publishes reuse a dedicated record so the point buffer's capacity
  // survives across events (churn commands keep the allocating make_record
  // path; they are off the hot path and carry Rect payloads).
  JournalRecord& rec = publish_rec_;
  rec.cmd.type = BrokerCommandType::kPublish;
  rec.cmd.node = origin;
  rec.cmd.point.assign(event.begin(), event.end());
  rec.cmd.time_ms = clock_->now_ms();
  rec.seq = seq_ + 1;
  return apply_record(rec);
}

PublishOutcome Broker::apply(const JournalRecord& rec) {
  return apply_record(rec);
}

PublishOutcome Broker::apply_record(const JournalRecord& rec) {
  if (degraded_) {
    Inc(c_mutations_rejected_);
    throw BrokerDegradedError(
        "broker is degraded (read-only): journal durability lost; seq " +
        std::to_string(rec.seq) + " rejected");
  }
  if (rec.seq != seq_ + 1)
    throw std::runtime_error("Broker: out-of-order record (expected seq " +
                             std::to_string(seq_ + 1) + ", got " +
                             std::to_string(rec.seq) + ")");
  validate_command(rec.cmd);
  const bool sampled =
      trace_ctx_armed_ || (trace_sample_ > 0 && rec.seq % trace_sample_ == 0);
  FailPoints& fp = FailPoints::Instance();
  // Feed the broker's command sequence to the fail-point layer so +SEQ
  // (arm-at-seq) specs can target a specific command — e.g. the organic
  // checkpoint a chaos schedule knows is coming.
  if (fp.active()) fp.advance_sequence(rec.seq);
  const bool is_publish = rec.cmd.type == BrokerCommandType::kPublish;
  if (fp.active() && is_publish &&
      fp.eval("broker.publish.pre_journal").action != FailAction::kOff)
    throw InjectedCrash("broker.publish.pre_journal");
  // Write-ahead: the record is durable (and its size accounted) before the
  // state mutation.  Serialization also validates the command against the
  // event space.
  {
    const double flush_start = trace_clock_->now_ms();
    journal_stream_.reset();
    WriteJournalRecord(journal_stream_, rec, mgr_->workload().space.dims());
    journal_append(journal_stream_.str(), &rec);
    const double flush_ms = trace_clock_->now_ms() - flush_start;
    Observe(h_stage_[static_cast<std::size_t>(PublishStage::kJournalFlush)],
            flush_ms);
    if (sampled)
      trace_.record({trace_ctx_armed_ ? trace_ctx_id_ : rec.seq, rec.seq,
                     trace_ctx_shard_, PublishStage::kJournalFlush,
                     flush_start, flush_ms});
  }
  if (fp.active() && is_publish &&
      fp.eval("broker.publish.post_journal").action != FailAction::kOff)
    throw InjectedCrash("broker.publish.post_journal");
  return finish_apply(rec);
}

// Everything after the record is durable: the crash-recovery contract is
// that rerunning this half from the journal reproduces the mutation.
PublishOutcome Broker::finish_apply(const JournalRecord& rec) {
  seq_ = rec.seq;
  last_time_ms_ = rec.cmd.time_ms;

  PublishOutcome out;
  if (rec.cmd.type == BrokerCommandType::kPublish) {
    out = apply_publish(rec.cmd);
  } else {
    apply_churn(rec.cmd);
  }
  out.seq = seq_;
  Inc(c_commands_);
  maybe_refresh(&out);
  update_derived_gauges();
  // The fleet context covers exactly one record (clear_degraded's late
  // success lands here too, so a stalled-then-healed publish still traces).
  trace_ctx_armed_ = false;
  trace_ctx_shard_ = -1;
  trace_ctx_id_ = 0;
  return out;
}

void Broker::set_trace_context(std::uint64_t trace_id, std::int32_t shard) {
  trace_ctx_id_ = trace_id;
  trace_ctx_shard_ = shard;
  trace_ctx_armed_ = true;
}

void Broker::journal_append(const std::string& text, const JournalRecord* rec) {
  if (journal_ == nullptr) {
    // No sink attached (replay, tests): the stream size is still accounted
    // so journal_bytes matches a broker that did write these records.
    if (rec != nullptr) Inc(c_journal_bytes_, text.size());
    return;
  }
  std::size_t offset = 0;
  std::size_t failures = 0;
  double delay_ms = kJournalBackoffBaseMs;
  const auto on_failure = [&](const char* what) {
    Inc(c_flush_failures_);
    if (failures >= kJournalFlushRetries)
      enter_degraded(what, text, offset, rec);
    ++failures;
    Inc(c_flush_retries_);
    // Exponential backoff.  With a ManualClock (the deterministic default)
    // the broker advances time itself so retry schedules replay exactly;
    // under a wall clock the delay is advisory — the caller owns actual
    // sleeping.
    if (auto* manual = dynamic_cast<ManualClock*>(clock_))
      manual->advance(delay_ms);
    delay_ms *= 2.0;
  };
  while (offset < text.size()) {
    const std::size_t wrote =
        journal_->write(text.data() + offset, text.size() - offset);
    offset += wrote;
    if (offset >= text.size()) break;
    // A short write that made progress is retried immediately with the
    // remainder (ordinary POSIX append semantics); only a stalled sink
    // spends retry budget.
    if (wrote == 0) on_failure("journal write made no progress");
  }
  while (!journal_->flush()) on_failure("journal flush (fsync) failed");
  if (rec != nullptr) Inc(c_journal_bytes_, text.size());
}

void Broker::enter_degraded(const std::string& why, const std::string& text,
                            std::size_t offset, const JournalRecord* rec) {
  degraded_ = true;
  pending_text_ = text;
  pending_offset_ = offset;
  pending_is_record_ = rec != nullptr;
  if (rec != nullptr) pending_rec_ = *rec;
  Inc(c_degraded_entries_);
  Set(g_degraded_, 1.0);
  throw BrokerDegradedError(
      "broker degraded (read-only): " + why + " after " +
      std::to_string(kJournalFlushRetries) + " retries");
}

bool Broker::clear_degraded() {
  if (!degraded_) return true;
  if (journal_ != nullptr) {
    // Finish the interrupted append before anything else: its prefix may
    // already be on disk, and abandoning it would hand the same seq to the
    // next command — a duplicate no reader accepts.
    while (pending_offset_ < pending_text_.size()) {
      const std::size_t wrote =
          journal_->write(pending_text_.data() + pending_offset_,
                          pending_text_.size() - pending_offset_);
      if (wrote == 0) {
        Inc(c_flush_failures_);
        return false;
      }
      pending_offset_ += wrote;
    }
    if (!journal_->flush()) {
      Inc(c_flush_failures_);
      return false;
    }
  }
  degraded_ = false;
  Set(g_degraded_, 0.0);
  if (pending_is_record_) {
    Inc(c_journal_bytes_, pending_text_.size());
    const JournalRecord rec = pending_rec_;
    pending_is_record_ = false;
    pending_text_.clear();
    pending_offset_ = 0;
    // The record is durable now, so the command takes effect — the caller
    // that saw BrokerDegradedError observes it as a late success.
    finish_apply(rec);
  } else {
    pending_text_.clear();
    pending_offset_ = 0;
  }
  return true;
}

bool Broker::heal_probe() {
  if (!degraded_) return true;
  Inc(c_heal_probes_);
  const bool healed = clear_degraded();
  if (healed) Inc(c_heal_successes_);
  return healed;
}

void Broker::validate_command(const BrokerCommand& cmd) const {
  // Only checks serialization cannot do: WriteJournalRecord already
  // rejects interest/point dimensionality mismatches before any byte
  // reaches the sink, but it knows neither the subscriber table nor the
  // network — an unknown-id unsubscribe/update, or a subscribe or publish
  // at a node outside the network, must be caught here, pre-journal, or
  // the record lands in the journal (and consumes a seq) while the
  // mutation throws or reads out of bounds, crashing recovery replay.
  // A publish off the lattice has no columns to match against
  // (index/lattice_index.h); the journal reader refuses a non-finite one.
  if (cmd.type == BrokerCommandType::kSubscribe ||
      cmd.type == BrokerCommandType::kPublish) {
    network_->check_node(cmd.node, "Broker");
    if (cmd.type == BrokerCommandType::kPublish)
      mgr_->workload().space.check_lattice_point(cmd.point, "Broker");
    return;
  }
  if (cmd.subscriber < 0 ||
      static_cast<std::size_t>(cmd.subscriber) >=
          mgr_->workload().num_subscribers())
    throw std::out_of_range("Broker: unknown subscriber id " +
                            std::to_string(cmd.subscriber));
}

void Broker::apply_churn(const BrokerCommand& cmd) {
  // The index clears the interest the table holds, so it is read before
  // GroupManager overwrites it.
  const auto old_interest = [&]() -> const Rect& {
    return mgr_->workload()
        .subscribers[static_cast<std::size_t>(cmd.subscriber)]
        .interest;
  };
  switch (cmd.type) {
    case BrokerCommandType::kSubscribe: {
      const SubscriberId id = mgr_->add_subscriber(cmd.node, cmd.interest);
      lattice_.insert(id, cmd.interest);
      Inc(c_subscribes_);
      break;
    }
    case BrokerCommandType::kUnsubscribe:
      lattice_.erase(cmd.subscriber, old_interest());
      mgr_->remove_subscriber(cmd.subscriber);
      Inc(c_unsubscribes_);
      break;
    case BrokerCommandType::kUpdate:
      lattice_.erase(cmd.subscriber, old_interest());
      mgr_->update_subscriber(cmd.subscriber, cmd.interest);
      lattice_.insert(cmd.subscriber, cmd.interest);
      Inc(c_updates_);
      break;
    case BrokerCommandType::kPublish:
      break;  // handled by apply_publish
  }
}

PublishOutcome Broker::apply_publish(const BrokerCommand& cmd) {
  // Stage spans: histograms always, the ring only for sampled commands
  // (seq_ already carries this record's number).
  const bool sampled =
      trace_ctx_armed_ || (trace_sample_ > 0 && seq_ % trace_sample_ == 0);
  double mark = trace_clock_->now_ms();
  const auto stage_done = [&](PublishStage stage) {
    const double now = trace_clock_->now_ms();
    Observe(h_stage_[static_cast<std::size_t>(stage)], now - mark);
    if (sampled)
      trace_.record({trace_ctx_armed_ ? trace_ctx_id_ : seq_, seq_,
                     trace_ctx_shard_, stage, mark, now - mark});
    mark = now;
  };

  PublishOutcome out;
  MatchScratch& s = scratch_;
  const std::span<const SubscriberId> inter = interested_into(cmd.point, s);
  out.interested_set = inter;
  out.interested = inter.size();
  MatchDecision d = mgr_->matcher().match(cmd.point, inter, s);
  stage_done(PublishStage::kMatch);

  Inc(c_publishes_);
  if (!inter.empty()) Inc(c_events_matched_);
  Observe(h_interested_, static_cast<double>(inter.size()));

  s.latencies.clear();
  if (d.group_id >= 0) {
    out.group_id = d.group_id;
    out.group_size = d.group_members.size();
    // The matcher only knows the refresh-time table; interested subscribers
    // outside the group (added/updated since) get the exact-match unicast
    // path (see core/group_manager.h).  interested_into left the interested
    // bits set in s.words, so the completion is a word-level AND-NOT against
    // the group's membership words — emission over the touched word range
    // ascends, reproducing the sorted set_difference this replaced.
    const std::span<const std::uint64_t> gw =
        mgr_->matcher().group_bits(d.group_id).words();
    s.unicast.clear();
    for (std::size_t w = s.word_lo; w <= s.word_hi; ++w) {
      std::uint64_t word = s.words[w] & ~(w < gw.size() ? gw[w] : 0);
      while (word != 0) {
        const int b = std::countr_zero(word);
        s.unicast.push_back(static_cast<SubscriberId>(
            w * 64 + static_cast<std::size_t>(b)));
        word &= word - 1;
      }
    }
    s.clear_words();
    out.unicast_targets = s.unicast;
    out.wasted =
        d.group_members.size() - (inter.size() - out.unicast_targets.size());
    Inc(c_multicast_events_);
    Observe(h_group_size_, static_cast<double>(out.group_size));
    stage_done(PublishStage::kGroupSelection);
    out.timing = runtime_->deliver_multicast(
        cmd.time_ms, cmd.node, nodes_into(d.group_members, s.nodes),
        &s.latencies);
    if (!out.unicast_targets.empty()) {
      const DeliveryTiming u = runtime_->deliver_unicast(
          cmd.time_ms, cmd.node, nodes_into(out.unicast_targets, s.nodes),
          &s.latencies);
      out.timing.service_ms += u.service_ms;
    }
  } else {
    s.clear_words();
    out.unicast_targets = d.unicast_targets;
    Inc(c_unicast_events_);
    stage_done(PublishStage::kGroupSelection);
    out.timing = runtime_->deliver_unicast(
        cmd.time_ms, cmd.node, nodes_into(out.unicast_targets, s.nodes),
        &s.latencies);
  }
  // Both delivery calls appended into s.latencies (group latencies first);
  // re-span after the final append in case the buffer grew.
  out.timing.latencies_ms = s.latencies;
  stage_done(PublishStage::kDeliveryPlan);

  Observe(h_queue_wait_ms_, out.timing.queue_wait_ms);
  Observe(h_service_ms_, out.timing.service_ms);
  for (const double latency : out.timing.latencies_ms)
    Observe(h_delivery_ms_, latency);

  const std::size_t emitted = out.group_size + out.unicast_targets.size();
  Inc(c_messages_emitted_, emitted);
  Inc(c_wasted_, out.wasted);
  policy_.on_publish(emitted, out.wasted);
  return out;
}

void Broker::maybe_refresh(PublishOutcome* outcome) {
  const RefreshTrigger trig =
      policy_.trigger(mgr_->pending_churn(), mgr_->workload().num_subscribers());
  if (trig == RefreshTrigger::kNone) return;
  Inc(trig == RefreshTrigger::kChurn ? c_refresh_by_churn_
                                      : c_refresh_by_waste_);
  const GroupManager::RefreshStats rs = mgr_->refresh();
  Inc(c_refreshes_);
  if (rs.full_rebuild) Inc(c_full_rebuilds_);
  policy_.on_refresh();
  capture_checkpoint();
  if (outcome != nullptr) outcome->refreshed = true;
}

void Broker::capture_checkpoint() {
  checkpoint_.seq = seq_;
  checkpoint_.workload = mgr_->workload();
  checkpoint_.num_groups = static_cast<int>(options_.group.num_groups);
  checkpoint_.cells_fed = mgr_->assignment().size();
  checkpoint_.assignment = mgr_->assignment();
  checkpoint_.churn_since_full_build = mgr_->churn_since_full_build();
  checkpoint_.queue_state = runtime_->queue_state();
  checkpoint_.stats = stats();
}

std::uint64_t Broker::write_snapshot(std::ostream& os) const {
  // The command counters in the checkpoint are pinned to the checkpoint's
  // seq (recovery re-applies the journal tail on top of them), but the
  // durability block is *provenance*, not replayed state — export the live
  // values so a snapshot taken after an incident carries its history.
  BrokerSnapshot out = checkpoint_;
  const BrokerStats live = stats();
  out.stats.journal_flush_failures = live.journal_flush_failures;
  out.stats.journal_flush_retries = live.journal_flush_retries;
  out.stats.degraded_entries = live.degraded_entries;
  out.stats.mutations_rejected = live.mutations_rejected;
  std::ostringstream ss;
  WriteBrokerSnapshot(ss, out);
  const std::string text = ss.str();
  // Route through a sink so the snapshot.* fail-point sites cover this
  // path too; snapshot writes have no retry budget — the caller owns the
  // temp-file-plus-rename protocol (SaveToFileAtomic) and simply keeps the
  // previous snapshot on failure.
  StreamSink sink(os, "snapshot");
  std::size_t offset = 0;
  while (offset < text.size()) {
    const std::size_t wrote =
        sink.write(text.data() + offset, text.size() - offset);
    if (wrote == 0) throw std::runtime_error("Broker: snapshot write failed");
    offset += wrote;
  }
  if (!sink.flush()) throw std::runtime_error("Broker: snapshot flush failed");
  return text.size();
}

std::vector<SubscriberId> Broker::interested(const Point& event) const {
  mgr_->workload().space.check_lattice_point(event, "Broker::interested");
  const std::span<const SubscriberId> s = interested_into(event, scratch_);
  scratch_.clear_words();
  return {s.begin(), s.end()};
}

std::span<const SubscriberId> Broker::interested_into(const Point& event,
                                                      MatchScratch& s) const {
  // The AND of the event's columns lands in s.words, and the set bits are
  // emitted in ascending order, so the interested set does not depend on
  // churn history.  The bits stay set on return (see the header) for the
  // completion kernel.
  s.interested.clear();
  s.require_bits(lattice_.slots());
  if (!lattice_.stab(event, s.words.data())) return s.interested;
  std::size_t lo = static_cast<std::size_t>(-1);  // none: lo > hi
  std::size_t hi = 0;
  for (std::size_t w = 0; w < lattice_.row_words(); ++w) {
    std::uint64_t word = s.words[w];
    if (word == 0) continue;
    lo = std::min(lo, w);
    hi = w;
    while (word != 0) {
      const int b = std::countr_zero(word);
      s.interested.push_back(static_cast<SubscriberId>(
          w * 64 + static_cast<std::size_t>(b)));
      word &= word - 1;
    }
  }
  s.word_lo = lo;
  s.word_hi = hi;
  return s.interested;
}

std::uint64_t Broker::state_digest() const {
  std::uint64_t h = DigestWord(kDigestBasis, seq_);
  h = DigestWord(h, mgr_->pending_churn());
  h = DigestWord(h, mgr_->churn_since_full_build());
  const Workload& table = mgr_->workload();
  h = DigestSpace(h, table.space);
  h = DigestWord(h, table.num_subscribers());
  for (const Subscriber& s : table.subscribers) h = DigestSubscriber(h, s);
  h = DigestWord(h, mgr_->assignment().size());
  for (const int g : mgr_->assignment())
    h = DigestWord(h, static_cast<std::uint64_t>(g));
  h = DigestWord(h, runtime_->queue_state().size());
  for (const double v : runtime_->queue_state())
    h = DigestWord(h, std::bit_cast<std::uint64_t>(v));
  return h;
}

std::span<const NodeId> Broker::nodes_into(std::span<const SubscriberId> subs,
                                           std::vector<NodeId>& out) const {
  out.clear();
  for (const SubscriberId s : subs)
    out.push_back(
        mgr_->workload().subscribers[static_cast<std::size_t>(s)].node);
  return out;
}

}  // namespace pubsub
