// Traced run: one span tree per command, keyed by the fleet seq as its
// trace id.
//   * The root span is BrokerFleet::apply, timed by the benchmark.
//   * The fleet records its own spans (BrokerObsOptions::trace_sample = 1):
//     per shard the broker's match, group-selection, delivery-plan and
//     journal stages, and per publish the coordinator's fan-out, merge and
//     deliver.  They are read back with collect_spans() after the stream.
//   * What the fleet does not span, the benchmark re-executes and records
//     as children of the root:
//       - after a publish, on each shard the publish reached (its seq
//         advanced), Broker::interested and GridMatcher::match on the live
//         shard, read-only: the split of the broker's match stage;
//       - when a shard's BrokerStats::refreshes advances,
//         GroupManager::refresh() on a mirror restored from the shard's
//         previous refresh boundary and brought to the shard's current
//         table, then a Grid and a GridMatcher rebuilt from the shard's
//         refreshed table and assignment.
// The mirrors are driven only by what the fleet observably did (which
// shard seqs and refresh counts advanced, each shard's own table and
// assignment), so they follow any routing, pruning or refresh schedule.
// Every mirror is checked against its shard; a mismatch fails the run.
#include <algorithm>
#include <cmath>
#include <exception>
#include <fstream>
#include <string>
#include <tuple>

#include "core/grid.h"
#include "core/group_manager.h"
#include "core/matching.h"
#include "obs/clock.h"
#include "obs/trace.h"
#include "run_common.h"
#include "stats.h"

namespace servebench {
namespace {

using namespace detail;
using pubsub::BrokerCommandType;
using pubsub::JournalRecord;
using pubsub::PublishStage;
using pubsub::SubscriberId;

enum class Layer : std::uint8_t {
  kServeApply,      // root: BrokerFleet::apply
  kFanOut,          // fleet: coordinator fan-out, spanning the shard lanes
  kMerge,           // fleet: coordinator merge of the interested sets
  kFleetDeliver,    // fleet: coordinator outcome hand-off
  kBrokerMatch,     // shard: interested set plus matcher decision
  kGroupSelection,  // shard: unicast completion
  kDeliver,         // shard: delivery plan (DeliveryRuntime)
  kJournalEncode,   // shard: write-ahead encoding (no sink attached)
  kIndexStab,       // re-executed Broker::interested
  kMatch,           // re-executed GridMatcher::match
  kGroupRefresh,    // mirror GroupManager refresh (or cold build)
  kGridBuild,       // Grid rebuilt from the shard's table
  kMatcherBuild,    // GridMatcher rebuilt from the shard's assignment
};

const char* LayerName(Layer l) {
  switch (l) {
    case Layer::kServeApply: return "serve.apply";
    case Layer::kFanOut: return "serve.fanout";
    case Layer::kMerge: return "serve.merge";
    case Layer::kFleetDeliver: return "serve.deliver";
    case Layer::kBrokerMatch: return "broker.match";
    case Layer::kGroupSelection: return "broker.group_selection";
    case Layer::kDeliver: return "runtime.deliver";
    case Layer::kJournalEncode: return "io.journal_encode";
    case Layer::kIndexStab: return "index.stab";
    case Layer::kMatch: return "core.matching.match";
    case Layer::kGroupRefresh: return "core.group_manager.refresh";
    case Layer::kGridBuild: return "core.grid.build";
    case Layer::kMatcherBuild: return "core.matching.build";
  }
  return "?";
}

// The layer of a span the fleet recorded; false for a stage the traced
// run does not expect (replica catch-up: no replica is attached).
bool LayerOf(PublishStage stage, Layer* layer) {
  switch (stage) {
    case PublishStage::kMatch: *layer = Layer::kBrokerMatch; break;
    case PublishStage::kGroupSelection: *layer = Layer::kGroupSelection; break;
    case PublishStage::kDeliveryPlan: *layer = Layer::kDeliver; break;
    case PublishStage::kJournalFlush: *layer = Layer::kJournalEncode; break;
    case PublishStage::kFleetFanOut: *layer = Layer::kFanOut; break;
    case PublishStage::kFleetMerge: *layer = Layer::kMerge; break;
    case PublishStage::kFleetDeliver: *layer = Layer::kFleetDeliver; break;
    case PublishStage::kReplicaApply: return false;
  }
  return true;
}

struct Span {
  std::uint64_t trace_id = 0;  // fleet seq of the command; 0 = construction
  std::int32_t parent = -1;    // index of the parent span; -1 = none
  std::int16_t shard = -1;     // -1 = fleet level
  Layer layer = Layer::kServeApply;
  bool fleet = false;          // recorded by the fleet, not the benchmark
  double start_us = 0.0;       // on the stream's trace clock
  double dur_us = 0.0;
};

// Span store and trace clock for one traced stream.  The fleet and its
// shards stamp their spans with the same clock, so all of a command's
// spans share one time base.
class Tracer {
 public:
  pubsub::Clock* clock() { return &clock_; }
  double now_us() const { return clock_.elapsed_ms() * 1000.0; }

  // Opens a command: its root span (serve.apply, timed by close_root)
  // parents every span added until the next begin_command.
  std::int32_t begin_command(std::uint64_t trace_id) {
    trace_id_ = trace_id;
    root_ = static_cast<std::int32_t>(spans_.size());
    Span root;
    root.trace_id = trace_id;
    spans_.push_back(root);
    return root_;
  }
  // Times the open root as [start_us, now) and returns its duration.
  double close_root(double start_us) {
    Span& root = spans_[static_cast<std::size_t>(root_)];
    root.start_us = start_us;
    root.dur_us = now_us() - start_us;
    return root.dur_us;
  }
  // Records [start_us, now) as a child of the open root (or as a
  // construction span before the first command); returns its duration.
  double add(Layer layer, std::size_t shard, double start_us) {
    Span s;
    s.trace_id = trace_id_;
    s.parent = root_;
    s.shard = static_cast<std::int16_t>(shard);
    s.layer = layer;
    s.start_us = start_us;
    s.dur_us = now_us() - start_us;
    spans_.push_back(s);
    return s.dur_us;
  }
  // Appends a span the fleet recorded, under `parent`; returns its index.
  std::int32_t add_fleet(const pubsub::TraceSpan& f, Layer layer,
                         std::int32_t parent) {
    Span s;
    s.trace_id = f.trace_id;
    s.parent = parent;
    s.shard = static_cast<std::int16_t>(f.shard);
    s.layer = layer;
    s.fleet = true;
    s.start_us = f.start_ms * 1000.0;
    s.dur_us = f.duration_ms * 1000.0;
    spans_.push_back(s);
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  pubsub::StopwatchClock clock_;
  std::vector<Span> spans_;
  std::uint64_t trace_id_ = 0;
  std::int32_t root_ = -1;
};

// One grid-framework build: the manager call (refresh, or the cold build
// at construction), then a Grid and GridMatcher rebuilt alone.
struct BuildSample {
  double manager_ms = 0.0;
  double grid_ms = 0.0;
  double matcher_ms = 0.0;
  double hyper_cells = 0.0;
};

std::uint64_t CounterValue(pubsub::MetricsRegistry& reg, const char* name) {
  return reg.counter(name, "")->value();
}

// What the traced run knows of one fleet shard: its clustering state at
// its last refresh boundary (where the next refresh mirror starts) and
// what it observably did since.
struct ShardMirror {
  pubsub::Workload table;
  pubsub::Assignment assignment;
  std::size_t churn_since_full_build = 0;
  std::size_t churn = 0;          // churn records the shard applied since
  std::uint64_t seq = 0;          // fleet.shard_seq(k) last seen
  std::uint64_t refreshes = 0;    // BrokerStats::refreshes last seen
  std::uint64_t cell_visits = 0;  // kmeans_cell_visits_total at construction
};

struct LayerSamples {
  std::vector<double> fanout_us, straggler_us, broker_churn_us;
  std::vector<double> stab_us, match_us, deliver_us, encode_us;
  std::vector<BuildSample> cold;  // re-run cold builds, one per shard
  std::vector<BuildSample> warm;  // mirrored refreshes
  double refresh_ms_total = 0.0;  // Σ warm manager_ms
  std::uint64_t cold_cell_visits = 0, warm_cell_visits = 0;
  double traced_s = 0.0, untraced_s = 0.0;
  double root_s = 0.0;       // Σ root spans: the fleet's serve time
  double explained_s = 0.0;  // the part of it the layer spans account for
  std::uint64_t traced_publishes = 0, untraced_publishes = 0;
  std::size_t traced_commands = 0;
  std::uint64_t shard_visits = 0;  // Σ over publishes of shards reached
};

class TracedStream {
 public:
  TracedStream(const Corpus& c, std::size_t stream, const TraceOptions& opts,
               LayerSamples* samples, RunResult* r)
      : c_(c), stream_(stream), opts_(opts), s_(samples), r_(r) {}

  // Returns false when the stream could not be replayed to the end.
  bool run(StreamTally* tally, std::vector<Span>* keep);

 private:
  struct Command {
    std::int32_t root = -1;
    double root_us = 0.0;
    bool publish = false;
    bool refreshed = false;  // some shard re-clustered
  };

  void fail(const std::string& why) {
    Fail(r_, "stream " + std::to_string(c_.stream_seeds[stream_]) + ": " + why);
  }
  void start_mirrors(const pubsub::BrokerFleet& fleet, Tracer& tr);
  // Rebuilds a Grid and GridMatcher from shard k's table and assignment
  // and checks them against the shard's own.
  BuildSample rebuild(std::size_t k, const pubsub::BrokerFleet& fleet,
                      Tracer& tr);
  // Everything the benchmark adds after command `i` was applied.
  void observe(const JournalRecord& rec, const pubsub::FleetPublishOutcome& out,
               std::size_t i, const pubsub::BrokerFleet& fleet, Tracer& tr);
  void mirror_refresh(std::size_t k, std::size_t i,
                      const pubsub::BrokerFleet& fleet, Tracer& tr);
  // Hangs the fleet's spans under their commands and derives the samples
  // that combine them with the benchmark's own.
  void read_fleet_spans(const pubsub::BrokerFleet& fleet, Tracer& tr);

  const Corpus& c_;
  std::size_t stream_;
  const TraceOptions& opts_;
  LayerSamples* s_;
  RunResult* r_;
  std::vector<ShardMirror> mirrors_;
  std::vector<Command> commands_;
  // (command, shard, µs) of every mirrored refresh, in command order.
  std::vector<std::tuple<std::size_t, std::size_t, double>> refresh_us_;
  std::uint64_t visits_ = 0;        // shard visits by publishes
  std::uint64_t churn_applied_ = 0;  // churn records shards applied
  bool diverge_pending_ = false;
};

BuildSample TracedStream::rebuild(std::size_t k,
                                  const pubsub::BrokerFleet& fleet,
                                  Tracer& tr) {
  const pubsub::GroupManagerOptions& go = c_.fleet.broker.group;
  const pubsub::GroupManager& live = fleet.shard(k).groups();
  BuildSample b;
  double a = tr.now_us();
  const pubsub::Grid grid(live.workload(), *c_.scenario.pub);
  b.grid_ms = tr.add(Layer::kGridBuild, k, a) / 1000.0;
  const std::size_t cells = grid.top_cells(go.max_cells).size();
  a = tr.now_us();
  const pubsub::GridMatcher matcher(
      grid, live.assignment(),
      static_cast<int>(std::min<std::size_t>(go.num_groups,
                                             std::max<std::size_t>(cells, 1))),
      go.matcher_threshold);
  b.matcher_ms = tr.add(Layer::kMatcherBuild, k, a) / 1000.0;
  b.hyper_cells = static_cast<double>(grid.hyper_cells().size());

  bool same = grid.hyper_cells().size() == live.grid().hyper_cells().size() &&
              matcher.num_groups() == live.matcher().num_groups();
  for (int g = 0; same && g < matcher.num_groups(); ++g) {
    const auto x = matcher.group_members(g);
    const auto y = live.matcher().group_members(g);
    same = std::equal(x.begin(), x.end(), y.begin(), y.end());
  }
  if (!same)
    fail("shard " + std::to_string(k) +
         " rebuilt grid/matcher differs from the shard's");
  return b;
}

void TracedStream::start_mirrors(const pubsub::BrokerFleet& fleet,
                                 Tracer& tr) {
  pubsub::GroupManagerOptions go = c_.fleet.broker.group;
  go.metrics = nullptr;
  for (std::size_t k = 0; k < fleet.num_shards(); ++k) {
    const pubsub::Broker& shard = fleet.shard(k);
    const pubsub::GroupManager& live = shard.groups();
    ShardMirror m;
    m.table = live.workload();
    m.assignment = live.assignment();
    m.churn_since_full_build = live.churn_since_full_build();
    m.seq = fleet.shard_seq(k);
    m.refreshes = shard.stats().refreshes;
    m.cell_visits = CounterValue(shard.metrics(), "kmeans_cell_visits_total");
    // The shard's cold build, re-run on its initial table.
    const double a = tr.now_us();
    const pubsub::GroupManager cold(m.table, *c_.scenario.pub, go);
    BuildSample b;
    b.manager_ms = tr.add(Layer::kGroupRefresh, k, a) / 1000.0;
    if (cold.assignment() != live.assignment())
      fail("shard " + std::to_string(k) +
           " re-run cold build differs from the shard's clustering");
    const BuildSample r = rebuild(k, fleet, tr);
    b.grid_ms = r.grid_ms;
    b.matcher_ms = r.matcher_ms;
    b.hyper_cells = r.hyper_cells;
    s_->cold.push_back(b);
    s_->cold_cell_visits += m.cell_visits;
    mirrors_.push_back(std::move(m));
  }
}

void TracedStream::mirror_refresh(std::size_t k, std::size_t i,
                                  const pubsub::BrokerFleet& fleet,
                                  Tracer& tr) {
  ShardMirror& m = mirrors_[k];
  const pubsub::GroupManager& live = fleet.shard(k).groups();
  const std::vector<pubsub::Subscriber>& now = live.workload().subscribers;
  const std::vector<pubsub::Subscriber>& base = m.table.subscribers;
  pubsub::GroupManagerOptions go = c_.fleet.broker.group;
  go.metrics = nullptr;
  // The shard's manager as it stood at its last refresh boundary...
  pubsub::GroupManager mirror(m.table, *c_.scenario.pub, go, m.assignment,
                              m.churn_since_full_build);
  // ...brought to the shard's current table: every slot whose interest
  // changed is updated, every new slot appended.
  std::size_t ops = 0, last = 0;
  for (std::size_t j = 0; j < now.size(); ++j) {
    if (j < base.size() && now[j].interest == base[j].interest) continue;
    if (j < base.size())
      mirror.update_subscriber(static_cast<SubscriberId>(j), now[j].interest);
    else
      mirror.add_subscriber(now[j].node, now[j].interest);
    ++ops;
    last = j;
  }
  // A churn record that left no trace in the table (an update to the
  // interest a subscriber already had, or one a later update undid) still
  // counts toward the warm/cold rebuild decision: replay it as an update
  // to the same interest.
  if (ops > m.churn)
    fail("shard " + std::to_string(k) + " table changed in " +
         std::to_string(ops) + " slots after " + std::to_string(m.churn) +
         " churn records");
  for (; ops < m.churn; ++ops)
    mirror.update_subscriber(static_cast<SubscriberId>(last),
                             now[last].interest);
  if (diverge_pending_) {
    mirror.update_subscriber(0, c_.scenario.workload.space.domain_rect());
    diverge_pending_ = false;
  }

  const double a = tr.now_us();
  mirror.refresh();
  const double us = tr.add(Layer::kGroupRefresh, k, a);
  refresh_us_.emplace_back(i, k, us);

  const std::vector<pubsub::Subscriber>& got = mirror.workload().subscribers;
  bool same_table = got.size() == now.size();
  for (std::size_t j = 0; same_table && j < now.size(); ++j)
    same_table = got[j].node == now[j].node && got[j].interest == now[j].interest;
  if (!same_table)
    fail("shard " + std::to_string(k) +
         " mirror GroupManager table differs from the shard's");
  else if (mirror.assignment() != live.assignment())
    fail("shard " + std::to_string(k) +
         " mirror GroupManager assignment differs from the shard's");

  BuildSample b = rebuild(k, fleet, tr);
  b.manager_ms = us / 1000.0;
  s_->refresh_ms_total += b.manager_ms;
  s_->warm.push_back(b);
  // The refresh boundary the shard's next mirror starts from.
  m.table = live.workload();
  m.assignment = live.assignment();
  m.churn_since_full_build = live.churn_since_full_build();
  m.churn = 0;
}

void TracedStream::observe(const JournalRecord& rec,
                           const pubsub::FleetPublishOutcome& out,
                           std::size_t i, const pubsub::BrokerFleet& fleet,
                           Tracer& tr) {
  const bool publish = rec.cmd.type == BrokerCommandType::kPublish;
  std::size_t interested = 0, matched = 0;
  for (std::size_t k = 0; k < mirrors_.size(); ++k) {
    ShardMirror& m = mirrors_[k];
    const pubsub::Broker& shard = fleet.shard(k);
    const bool reached = fleet.shard_seq(k) != m.seq;
    m.seq = fleet.shard_seq(k);
    if (reached && publish) {
      ++visits_;
      double a = tr.now_us();
      const std::vector<SubscriberId> inter = shard.interested(rec.cmd.point);
      s_->stab_us.push_back(tr.add(Layer::kIndexStab, k, a));
      a = tr.now_us();
      const pubsub::MatchDecision d =
          shard.groups().matcher().match(rec.cmd.point, inter);
      s_->match_us.push_back(tr.add(Layer::kMatch, k, a));
      if (d.group_id >= shard.groups().matcher().num_groups())
        fail("seq " + std::to_string(rec.seq) + " shard " + std::to_string(k) +
             ": re-run match chose a group the matcher does not have");
      interested += inter.size();
      matched += inter.empty() ? 0 : 1;
    } else if (reached) {
      ++m.churn;
      ++churn_applied_;
    }
    const std::uint64_t refreshes = shard.stats().refreshes;
    if (refreshes == m.refreshes) continue;
    if (refreshes != m.refreshes + 1)
      fail("shard " + std::to_string(k) +
           " re-clustered more than once in one command");
    m.refreshes = refreshes;
    commands_[i].refreshed = true;
    mirror_refresh(k, i, fleet, tr);
  }
  if (publish && (interested != out.interested.size() ||
                  matched != out.shards_matched))
    fail("seq " + std::to_string(rec.seq) +
         ": the re-run shard interested sets do not add up to the fleet's "
         "merged set");
}

void TracedStream::read_fleet_spans(const pubsub::BrokerFleet& fleet,
                                    Tracer& tr) {
  if (fleet.trace_dropped() != 0)
    fail("the fleet's trace rings overflowed");
  const std::size_t n = mirrors_.size();
  const std::uint64_t first = c_.streams[stream_].front().seq;
  // Per command and shard: the time the shard's layer spans account for.
  std::vector<double> lane_us(commands_.size() * n, 0.0);
  std::vector<double> coordinator_us(commands_.size(), 0.0);
  std::vector<double> journal_us(commands_.size(), 0.0);
  std::uint64_t deliver_spans = 0, journal_spans = 0, unexpected = 0;
  std::int32_t fanout = -1;
  std::uint64_t fanout_trace = 0;
  for (const pubsub::TraceSpan& f : fleet.collect_spans()) {
    Layer layer = Layer::kServeApply;
    const std::uint64_t i = f.trace_id - first;
    if (f.trace_id < first || i >= commands_.size() ||
        !LayerOf(f.stage, &layer) || f.shard >= static_cast<int>(n)) {
      ++unexpected;
      continue;
    }
    // Sorted by (trace id, shard, stage): a publish's coordinator spans,
    // the fan-out first, come before its shards' spans.
    const bool lane = f.shard >= 0;
    const std::int32_t parent =
        lane && fanout_trace == f.trace_id ? fanout : commands_[i].root;
    const std::int32_t index = tr.add_fleet(f, layer, parent);
    const double us = f.duration_ms * 1000.0;
    if (layer == Layer::kFanOut) {
      fanout = index;
      fanout_trace = f.trace_id;
      continue;
    }
    if (!lane) {
      coordinator_us[i] += us;
      continue;
    }
    lane_us[i * n + static_cast<std::size_t>(f.shard)] += us;
    if (layer == Layer::kDeliver) {
      s_->deliver_us.push_back(us);
      ++deliver_spans;
    } else if (layer == Layer::kJournalEncode) {
      s_->encode_us.push_back(us);
      journal_us[i] += us;
      ++journal_spans;
    }
  }
  if (unexpected != 0 || deliver_spans != visits_ ||
      journal_spans != visits_ + churn_applied_)
    fail("the fleet's spans do not cover every shard command once");

  // A refresh has no fleet span: its mirror's time stands in for it.
  for (const auto& [i, k, us] : refresh_us_) lane_us[i * n + k] += us;
  std::vector<double> lanes;
  for (std::size_t i = 0; i < commands_.size(); ++i) {
    const Command& cmd = commands_[i];
    lanes.assign(lane_us.begin() + static_cast<std::ptrdiff_t>(i * n),
                 lane_us.begin() + static_cast<std::ptrdiff_t>((i + 1) * n));
    const double slowest = *std::max_element(lanes.begin(), lanes.end());
    s_->root_s += cmd.root_us / 1e6;
    s_->explained_s +=
        std::min(cmd.root_us, coordinator_us[i] + slowest) / 1e6;
    if (cmd.refreshed) continue;
    if (cmd.publish) {
      s_->fanout_us.push_back(cmd.root_us - slowest);
      s_->straggler_us.push_back(slowest - Percentile(lanes, 0.5));
    } else {
      s_->broker_churn_us.push_back(cmd.root_us - journal_us[i]);
    }
  }
}

bool TracedStream::run(StreamTally* tally, std::vector<Span>* keep) {
  const std::vector<JournalRecord>& stream = c_.streams[stream_];
  Tracer tr;
  // The fleet records every command's spans on the tracer's clock; each
  // ring holds a whole stream (at most four spans per record and ring).
  pubsub::FleetOptions options = c_.fleet;
  options.trace_clock = tr.clock();
  options.broker.obs.trace_clock = tr.clock();
  options.broker.obs.trace_sample = 1;
  options.broker.obs.trace_capacity = 4 * stream.size() + 16;
  pubsub::BrokerFleet fleet(c_.scenario.workload, *c_.scenario.pub,
                            c_.scenario.net.graph, options);
  start_mirrors(fleet, tr);
  diverge_pending_ = opts_.diverge_mirror;

  *tally = StreamTally{};
  commands_.assign(stream.size(), Command{});
  const double start = tr.now_us();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const JournalRecord& rec = stream[i];
    ++r_->attempted;
    Command& cmd = commands_[i];
    cmd.publish = rec.cmd.type == BrokerCommandType::kPublish;
    cmd.root = tr.begin_command(rec.seq);
    try {
      const double a = tr.now_us();
      const pubsub::FleetPublishOutcome out = fleet.apply(rec);
      cmd.root_us = tr.close_root(a);
      ++tally->commands;
      if (cmd.publish) {
        ++tally->publishes;
        tally->shards_matched += out.shards_matched;
      }
      observe(rec, out, i, fleet, tr);
    } catch (const std::exception& e) {
      ++r_->failed;
      fail("seq " + std::to_string(rec.seq) + " threw: " + e.what());
      return false;
    }
  }
  s_->traced_s += (tr.now_us() - start) / 1e6;
  s_->traced_publishes += tally->publishes;
  s_->traced_commands += tally->commands;
  s_->shard_visits += visits_;
  for (std::size_t k = 0; k < mirrors_.size(); ++k)
    s_->warm_cell_visits +=
        CounterValue(fleet.shard(k).metrics(), "kmeans_cell_visits_total") -
        mirrors_[k].cell_visits;
  read_fleet_spans(fleet, tr);
  TallyShards(fleet, tally);
  *keep = tr.spans();
  return true;
}

void WriteSpans(const std::string& path, const Corpus& c, std::uint64_t seed,
                const std::vector<Span>& spans, RunResult* r) {
  std::ofstream os(path);
  os << "{\"workload\": \"" << c.spec.name << "\", \"stream_seed\": " << seed
     << ", \"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << "{\"trace_id\": " << s.trace_id << ", \"span\": " << i
       << ", \"parent\": " << s.parent << ", \"shard\": " << s.shard
       << ", \"layer\": \"" << LayerName(s.layer) << "\", \"source\": \""
       << (s.fleet ? "fleet" : "servebench")
       << "\", \"start_us\": " << s.start_us << ", \"dur_us\": " << s.dur_us
       << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  os << "]}\n";
  if (!os) r->notes.push_back("could not write spans to " + path);
}

}  // namespace

RunResult RunTraced(const Corpus& c, const TraceOptions& opts) {
  RunResult r;
  LayerSamples s;
  TallyBook book(c.streams.size());
  std::vector<Span> last_spans;
  std::uint64_t last_seed = 0;
  // A traced pass (an untraced and a traced replay of every stream) costs
  // about four untraced passes.
  const std::size_t passes = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(opts.seconds / (4 * kSecondsPerPass))));
  for (; r.passes < passes; ++r.passes) {
    for (std::size_t i = 0; i < c.streams.size(); ++i) {
      // Untraced replay of the same stream right before the traced one, so
      // host drift hits both sides of trace.overhead_ratio alike.
      Replay plain;
      StreamTally t;
      if (ReplayStream(c, i, &plain, &t, &r)) {
        book.record(i, t, &r);
        s.untraced_s += plain.stream_s;
        s.untraced_publishes += plain.publishes;
      }
      TracedStream traced(c, i, opts, &s, &r);
      if (traced.run(&t, &last_spans)) {
        book.record(i, t, &r);
        last_seed = c.stream_seeds[i];
      }
    }
  }
  book.finish(c, &r);
  if (!opts.trace_out.empty())
    WriteSpans(opts.trace_out, c, last_seed, last_spans, &r);

  const StreamTally t = book.total();
  const double cmds = static_cast<double>(t.commands);
  const bool warm = !s.warm.empty();
  const std::vector<BuildSample>& builds = warm ? s.warm : s.cold;
  const double visits =
      static_cast<double>(warm ? s.warm_cell_visits : s.cold_cell_visits);
  std::vector<double> mgr, grid, kmeans, matcher, hyper;
  for (const BuildSample& b : builds) {
    mgr.push_back(b.manager_ms);
    grid.push_back(b.grid_ms);
    matcher.push_back(b.matcher_ms);
    kmeans.push_back(b.manager_ms - b.grid_ms - b.matcher_ms);
    hyper.push_back(b.hyper_cells);
  }
  const double traced_eps =
      Ratio(static_cast<double>(s.traced_publishes), s.traced_s);
  const double plain_eps =
      Ratio(static_cast<double>(s.untraced_publishes), s.untraced_s);
  const std::size_t traced_cmds = s.traced_commands;  // sample count
  r.metrics = {
      Median("serve.fanout_us_p50", "us", s.fanout_us),
      Median("serve.straggler_us_p50", "us", s.straggler_us),
      {"serve.shards_visited_per_publish", "count",
       Ratio(static_cast<double>(s.shard_visits),
             static_cast<double>(s.traced_publishes)),
       s.traced_publishes},
      {"serve.shard_hit_ratio", "ratio",
       Ratio(static_cast<double>(t.shards_matched),
             static_cast<double>(t.publishes * c.spec.shards)),
       t.publishes},
      {"serve.refreshes_per_kcmd", "1/kcmd",
       Ratio(1000.0 * static_cast<double>(t.refreshes), cmds), t.commands},
      {"broker.refresh_churn_per_kcmd", "1/kcmd",
       Ratio(1000.0 * static_cast<double>(t.refresh_churn), cmds), t.commands},
      {"broker.refresh_waste_per_kcmd", "1/kcmd",
       Ratio(1000.0 * static_cast<double>(t.refresh_waste), cmds), t.commands},
      Median("broker.churn_us_p50", "us", s.broker_churn_us),
      Median("core.group_manager.refresh_ms_p50", "ms", mgr),
      {"core.group_manager.refresh_share", "ratio",
       Ratio(s.refresh_ms_total / 1000.0, s.root_s), s.warm.size()},
      Median("core.grid.build_ms_p50", "ms", grid),
      Median("core.grid.hyper_cells", "count", hyper),
      Median("core.kmeans.ms_p50", "ms", kmeans),
      {"core.kmeans.cell_visits_per_refresh", "count",
       Ratio(visits, static_cast<double>(builds.size())), builds.size()},
      Median("core.matching.build_ms_p50", "ms", matcher),
      Median("core.matching.match_us_p50", "us", s.match_us),
      {"core.matching.multicast_ratio", "ratio",
       Ratio(static_cast<double>(t.multicast),
             static_cast<double>(t.shard_publishes)),
       t.shard_publishes},
      Median("index.stab_us_p50", "us", s.stab_us),
      Median("runtime.deliver_us_p50", "us", s.deliver_us),
      {"runtime.messages_per_publish", "count",
       Ratio(static_cast<double>(t.messages),
             static_cast<double>(t.publishes)),
       t.publishes},
      Median("io.journal_encode_us_p50", "us", s.encode_us),
      {"io.journal_bytes_per_cmd", "bytes",
       Ratio(static_cast<double>(t.journal_bytes), cmds), t.commands},
      {"trace.unattributed_share", "ratio",
       1.0 - Ratio(s.explained_s, s.root_s), traced_cmds},
      {"trace.overhead_ratio", "ratio", Ratio(traced_eps, plain_eps),
       traced_cmds},
      {"events_per_s_traced", "events/s", traced_eps, traced_cmds},
      {"events_per_s_untraced", "events/s", plain_eps, traced_cmds},
  };
  if (!warm)
    r.notes.push_back(
        "no refresh during the streams: core.* build figures are the re-run "
        "cold builds at construction");
  return r;
}

}  // namespace servebench
