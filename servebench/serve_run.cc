#include <algorithm>
#include <cmath>
#include <exception>
#include <string>

#include "obs/metrics.h"
#include "run_common.h"
#include "stats.h"

namespace servebench {
namespace detail {
namespace {

std::uint64_t CounterValue(const pubsub::MetricsSnapshot& snap,
                           const std::string& name) {
  for (const pubsub::MetricSample& s : snap.samples)
    if (s.info.name == name) return s.counter_value;
  return 0;
}

}  // namespace

void TallyShards(const pubsub::BrokerFleet& fleet, StreamTally* t) {
  static const std::string kChurn =
      pubsub::LabeledName("broker_refresh_trigger_total", "cause", "churn");
  static const std::string kWaste =
      pubsub::LabeledName("broker_refresh_trigger_total", "cause", "waste");
  for (std::size_t k = 0; k < fleet.num_shards(); ++k) {
    const pubsub::Broker& b = fleet.shard(k);
    const pubsub::BrokerStats st = b.stats();
    const pubsub::MetricsSnapshot snap = b.metrics().scrape(false);
    t->refreshes += st.refreshes;
    t->refresh_churn += CounterValue(snap, kChurn);
    t->refresh_waste += CounterValue(snap, kWaste);
    t->wasted += st.wasted_deliveries;
    t->emitted += st.messages_emitted;
    t->multicast += st.multicast_events;
    t->shard_publishes += st.publishes;
    t->wire_bytes += CounterValue(snap, "runtime_bytes_on_wire_total");
    t->messages += CounterValue(snap, "runtime_messages_sent_total");
    t->journal_bytes += st.journal_bytes;
  }
  t->digest = fleet.state_digest();
}

bool ReplayStream(const Corpus& c, std::size_t i, Replay* s,
                  StreamTally* tally, RunResult* r) {
  const std::vector<pubsub::JournalRecord>& stream = c.streams[i];
  const auto setup_start = Clock::now();
  pubsub::BrokerFleet fleet(c.scenario.workload, *c.scenario.pub,
                            c.scenario.net.graph, c.fleet);
  s->setup_s = Seconds(setup_start, Clock::now());

  // Refresh-bearing commands are found from per-shard refresh counters:
  // FleetPublishOutcome::refreshed is never set on churn commands, which
  // trigger many of the refreshes.
  const std::size_t n = fleet.num_shards();
  std::vector<std::uint64_t> refreshes(n);
  for (std::size_t k = 0; k < n; ++k)
    refreshes[k] = fleet.shard(k).stats().refreshes;

  *tally = StreamTally{};
  s->us.clear();
  s->flags.clear();
  s->us.reserve(stream.size());
  s->flags.reserve(stream.size());
  const auto start = Clock::now();
  for (const pubsub::JournalRecord& rec : stream) {
    ++r->attempted;
    const bool publish = rec.cmd.type == pubsub::BrokerCommandType::kPublish;
    pubsub::FleetPublishOutcome out;
    const auto a = Clock::now();
    try {
      out = fleet.apply(rec);
    } catch (const std::exception& e) {
      ++r->failed;
      Fail(r, "stream " + std::to_string(c.stream_seeds[i]) + " seq " +
                  std::to_string(rec.seq) + " threw: " + e.what());
      return false;
    }
    s->us.push_back(Micros(a, Clock::now()));
    std::uint8_t flags = publish ? Replay::kPublish : 0;
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint64_t now = fleet.shard(k).stats().refreshes;
      if (now != refreshes[k]) flags |= Replay::kRefreshed;
      refreshes[k] = now;
    }
    s->flags.push_back(flags);
    ++tally->commands;
    if (publish) {
      ++tally->publishes;
      tally->shards_matched += out.shards_matched;
    }
  }
  s->stream_s = Seconds(start, Clock::now());
  s->publishes = tally->publishes;
  TallyShards(fleet, tally);
  return true;
}

std::vector<std::uint64_t> OracleDigests(const Corpus& c) {
  pubsub::BrokerOptions opts = c.fleet.broker;
  opts.refresh.churn_fraction = 0.0;
  opts.refresh.waste_ratio = 0.0;
  std::vector<std::uint64_t> digests;
  for (const std::vector<pubsub::JournalRecord>& stream : c.streams) {
    pubsub::FleetOracle oracle(c.scenario.workload, *c.scenario.pub,
                               c.scenario.net.graph, opts);
    for (const pubsub::JournalRecord& rec : stream) oracle.apply(rec);
    digests.push_back(oracle.state_digest());
  }
  return digests;
}

void Fail(RunResult* r, const std::string& why) {
  r->correct = false;
  if (r->notes.size() < 8) r->notes.push_back(why);
}

void TallyBook::record(std::size_t i, const StreamTally& t, RunResult* r) {
  if (!have_[i]) {
    first_[i] = t;
    have_[i] = true;
  } else if (!(t == first_[i])) {
    Fail(r, "stream " + std::to_string(i) +
                ": a replay did not repeat the first replay's outcome");
  }
}

void TallyBook::finish(const Corpus& c, RunResult* r) const {
  const std::vector<std::uint64_t> oracle = OracleDigests(c);
  for (std::size_t i = 0; i < first_.size(); ++i) {
    if (!have_[i]) {
      Fail(r, "stream " + std::to_string(c.stream_seeds[i]) +
                  " never completed");
    } else if (first_[i].digest != oracle[i]) {
      Fail(r, "stream " + std::to_string(c.stream_seeds[i]) +
                  ": fleet digest differs from the FleetOracle digest");
    }
  }
  if (!r->correct) r->failed = r->attempted;
}

StreamTally TallyBook::total() const {
  StreamTally sum;
  for (const StreamTally& t : first_) {
    sum.commands += t.commands;
    sum.publishes += t.publishes;
    sum.shards_matched += t.shards_matched;
    sum.refreshes += t.refreshes;
    sum.refresh_churn += t.refresh_churn;
    sum.refresh_waste += t.refresh_waste;
    sum.wasted += t.wasted;
    sum.emitted += t.emitted;
    sum.multicast += t.multicast;
    sum.shard_publishes += t.shard_publishes;
    sum.wire_bytes += t.wire_bytes;
    sum.messages += t.messages;
    sum.journal_bytes += t.journal_bytes;
  }
  return sum;
}

Metric Median(const std::string& name, const std::string& unit,
              std::vector<double> samples) {
  Metric m{name, unit, 0.0, samples.size()};
  m.value = Percentile(samples, 0.5);
  m.reportable = !samples.empty();
  return m;
}

Metric Tail(const std::string& name, const std::string& unit,
            std::vector<double> samples, double q) {
  Metric m{name, unit, 0.0, samples.size()};
  m.value = Percentile(samples, q);
  m.reportable = TailReportable(samples.size(), q);
  return m;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace detail

std::size_t PassesFor(double seconds) {
  return std::max<std::size_t>(
      kMinPasses, static_cast<std::size_t>(std::lround(seconds / kSecondsPerPass)));
}

RunResult RunServe(const Corpus& c, double seconds) {
  using namespace detail;
  RunResult r;
  TallyBook book(c.streams.size());
  // Every pass replays each stream once, on a fresh fleet.  Every timing
  // figure pools the raw samples of all passes: publishes ÷ the summed
  // stream wall time, percentiles over every publish.  The host's speed
  // moves in states that can last a whole pass or longer (README.md,
  // "Steadiness and host drift"); pooling weighs each state by the time the
  // run spent in it instead of snapping to one, and a tail the program
  // itself causes now and then stays in the pooled p99.
  const std::size_t n = c.streams.size();
  std::vector<std::vector<std::uint8_t>> flags(n);
  std::vector<double> publish_us, churn_us, stall_ms, setup_s;
  std::uint64_t publishes = 0;
  double stream_s = 0.0;
  for (const std::size_t passes = PassesFor(seconds); r.passes < passes;
       ++r.passes) {
    for (std::size_t i = 0; i < n; ++i) {
      Replay rp;
      StreamTally t;
      if (!ReplayStream(c, i, &rp, &t, &r)) continue;
      book.record(i, t, &r);
      if (flags[i].empty()) {
        flags[i] = rp.flags;
      } else if (rp.flags != flags[i]) {
        Fail(&r, "stream " + std::to_string(c.stream_seeds[i]) +
                     ": replays disagree on which commands re-clustered");
      }
      setup_s.push_back(rp.setup_s);
      publishes += rp.publishes;
      stream_s += rp.stream_s;
      for (std::size_t j = 0; j < rp.us.size(); ++j) {
        const std::uint8_t f = rp.flags[j];
        (f & Replay::kPublish ? publish_us : churn_us).push_back(rp.us[j]);
        if (f & Replay::kRefreshed) stall_ms.push_back(rp.us[j] / 1000.0);
      }
    }
  }
  // Read before the oracle runs: the peak while fleets were alive.
  const double peak_rss_mb = PeakRssMb();
  book.finish(c, &r);

  std::size_t refresh_publishes = 0;
  for (const std::vector<std::uint8_t>& f : flags)
    refresh_publishes += static_cast<std::size_t>(std::count(
        f.begin(), f.end(), Replay::kPublish | Replay::kRefreshed));
  const StreamTally t = book.total();
  const double attempted = static_cast<double>(r.attempted);
  r.metrics = {
      {"events_per_s", "events/s", Ratio(static_cast<double>(publishes), stream_s),
       publishes},
      Median("publish_p50_us", "us", publish_us),
      Tail("publish_p99_us", "us", publish_us, 0.99),
      Median("churn_p50_us", "us", churn_us),
      Median("stall_p50_ms", "ms", stall_ms),
      Median("setup_s", "s", setup_s),
      {"peak_rss_mb", "MB", peak_rss_mb, 1},
      {"waste_ratio", "ratio",
       Ratio(static_cast<double>(t.wasted), static_cast<double>(t.emitted)),
       t.shard_publishes},
      {"wire_bytes_per_event", "bytes",
       Ratio(static_cast<double>(t.wire_bytes),
             static_cast<double>(t.publishes)),
       t.publishes},
      {"error_ratio", "ratio", Ratio(static_cast<double>(r.failed), attempted),
       r.attempted},
      {"refreshes", "count", static_cast<double>(t.refreshes),
       c.streams.size()},
      {"refresh_publishes", "count", static_cast<double>(refresh_publishes),
       t.publishes},
  };
  return r;
}

}  // namespace servebench
