// pubsub_cli — file-based pipeline driver for the library.
//
// Subcommands and their flags are declared once in util/cli_spec.h; the
// rendered reference lives in docs/CLI.md (tests/test_cli_docs.cc pins the
// two together byte-for-byte).  Pipeline: gen-net → gen-workload →
// cluster → evaluate, plus the broker service commands — snapshot,
// serve-replay, recover, stats — and the fault-injection driver `chaos`.
//
// The publication model is re-derived from the workload's event space (the
// §3 space has a regional "stub" dimension; the stock space a "bst"
// dimension), so every stage is reproducible from its input files plus the
// flags shown in the file headers it writes.
//
// The broker subcommands exercise src/broker: `snapshot` bootstraps a
// seq-0 snapshot from a workload, `serve-replay` drives a broker from a
// synthetic trading-day trace (journaling commands and checkpointing as it
// goes), `recover` rebuilds a broker from snapshot + journal and prints
// the same report — matching sequence numbers must yield matching state
// digests — and `chaos` proves that claim under injected crashes, torn
// journal tails and fsync failures (--failpoints arms the same faults on
// any command; see docs/OPERATIONS.md).
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "broker/chaos.h"
#include "serve/event_loop.h"
#include "serve/fleet.h"
#include "core/algorithms.h"
#include "core/grid.h"
#include "core/matching.h"
#include "io/serialize.h"
#include "sim/experiment.h"
#include "sim/scenario.h"
#include "util/cli_spec.h"
#include "util/failpoint.h"
#include "util/flags.h"
#include "util/thread_pool.h"
#include "workload/trace.h"

namespace pubsub {
namespace {

// Diagnostics go to stderr so stdout stays parseable (reports, metrics
// dumps); exit codes: 0 ok, 1 runtime failure, 2 usage error.  The full
// help text and every subcommand's accepted flag set both come from
// util/cli_spec.h — docs/CLI.md embeds the same text, pinned by
// tests/test_cli_docs.cc.
[[noreturn]] void Usage(const std::string& msg = "") {
  if (!msg.empty()) std::fprintf(stderr, "error: %s\n\n", msg.c_str());
  std::fputs("usage: pubsub_cli <command> [--flag=value ...]\n"
             "run `pubsub_cli help` (or see docs/CLI.md) for the command and "
             "flag list\n",
             stderr);
  std::exit(2);
}

TransitStubParams ShapeByName(const std::string& name) {
  if (name == "100") return PaperNet100();
  if (name == "300") return PaperNet300();
  if (name == "600") return PaperNet600();
  if (name == "sec5") return PaperNetSection5();
  Usage("unknown --shape '" + name + "'");
}

// Workload files don't embed the generator; the space's first dimension
// name distinguishes the two paper models.
bool IsSection3Space(const EventSpace& space) { return space.dim(0).name == "stub"; }

std::unique_ptr<PublicationModel> ModelFor(const TransitStubNetwork& net,
                                           const Workload& wl, const Flags& flags) {
  if (IsSection3Space(wl.space)) {
    Section3Params params;
    params.regionalism = flags.get_double("regionalism", 0.4);
    params.publication_tail = flags.get("tail", "uniform") == "gaussian"
                                  ? Section3Params::Tail::kGaussian
                                  : Section3Params::Tail::kUniform;
    return MakeSection3PublicationModel(net, params);
  }
  const auto modes = flags.get_int("modes", 1);
  PublicationHotSpots spots = PublicationHotSpots::kOne;
  if (modes == 4) spots = PublicationHotSpots::kFour;
  if (modes == 9) spots = PublicationHotSpots::kNine;
  return MakeStockPublicationModel(net, spots, {});
}

int GenNet(const Flags& flags) {
  flags.require_known(CliFlagNames("gen-net"));
  TransitStubParams shape = ShapeByName(flags.get("shape", "sec5"));
  shape.last_mile_cost = flags.get_double("last_mile", 0.0);
  Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 1)));
  const TransitStubNetwork net = GenerateTransitStub(shape, rng);
  std::ostringstream os;
  WriteTransitStub(os, net);
  const std::string out = flags.get("out", "");
  if (out.empty()) Usage("gen-net requires --out");
  SaveToFile(out, os.str());
  std::printf("wrote %s: %d nodes, %d edges, %d stubs\n", out.c_str(),
              net.graph.num_nodes(), net.graph.num_edges(), net.num_stubs);
  return 0;
}

int GenWorkload(const Flags& flags) {
  flags.require_known(CliFlagNames("gen-workload"));
  const std::string net_path = flags.get("net", "");
  if (net_path.empty()) Usage("gen-workload requires --net");
  std::istringstream net_is(LoadFromFile(net_path));
  const TransitStubNetwork net = ReadTransitStub(net_is);

  const std::size_t count = flags.get_count("subs", 1000);
  if (count > static_cast<std::size_t>(std::numeric_limits<int>::max()))
    Usage("--subs is too large");
  const auto subs = static_cast<int>(count);
  Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 2)));
  Workload wl;
  const std::string model = flags.get("model", "stock");
  if (model == "section3") {
    Section3Params params;
    params.regionalism = flags.get_double("regionalism", 0.4);
    params.subscription_tail = flags.get("tail", "uniform") == "gaussian"
                                   ? Section3Params::Tail::kGaussian
                                   : Section3Params::Tail::kUniform;
    wl = GenerateSection3Subscriptions(net, subs, params, rng);
  } else if (model == "stock") {
    wl = GenerateStockSubscriptions(net, subs, {}, rng);
  } else {
    Usage("unknown --model '" + model + "'");
  }

  std::ostringstream os;
  WriteWorkload(os, wl);
  const std::string out = flags.get("out", "");
  if (out.empty()) Usage("gen-workload requires --out");
  SaveToFile(out, os.str());
  std::printf("wrote %s: %zu subscribers in space %s\n", out.c_str(),
              wl.num_subscribers(), wl.space.to_string().c_str());
  return 0;
}

int Cluster(const Flags& flags) {
  flags.require_known(CliFlagNames("cluster"));
  const std::string net_path = flags.get("net", "");
  const std::string wl_path = flags.get("workload", "");
  if (net_path.empty() || wl_path.empty())
    Usage("cluster requires --net and --workload");
  std::istringstream net_is(LoadFromFile(net_path));
  const TransitStubNetwork net = ReadTransitStub(net_is);
  std::istringstream wl_is(LoadFromFile(wl_path));
  const Workload wl = ReadWorkload(wl_is);

  const auto model = ModelFor(net, wl, flags);
  const Grid grid(wl, *model);
  const auto cells_fed = flags.get_count("cells", 6000);
  const std::vector<ClusterCell> cells = grid.top_cells(cells_fed);
  const auto K = flags.get_count("groups", 100);

  Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 3)));
  const GridAlgorithm algo = GridAlgorithmByName(flags.get("algo", "forgy"));
  ClusteringFile out_file;
  out_file.assignment = algo.run(cells, K, rng);
  out_file.num_groups = static_cast<int>(K);
  out_file.cells_fed = cells.size();

  std::ostringstream os;
  WriteClustering(os, out_file);
  const std::string out = flags.get("out", "");
  if (out.empty()) Usage("cluster requires --out");
  SaveToFile(out, os.str());
  std::printf("wrote %s: %s, K=%zu over %zu cells (grid: %zu hyper-cells)\n",
              out.c_str(), algo.name.c_str(), K, cells.size(),
              grid.hyper_cells().size());
  return 0;
}

int Evaluate(const Flags& flags) {
  flags.require_known(CliFlagNames("evaluate"));
  const std::string net_path = flags.get("net", "");
  const std::string wl_path = flags.get("workload", "");
  const std::string groups_path = flags.get("groups", "");
  if (net_path.empty() || wl_path.empty() || groups_path.empty())
    Usage("evaluate requires --net, --workload and --groups");
  std::istringstream net_is(LoadFromFile(net_path));
  const TransitStubNetwork net = ReadTransitStub(net_is);
  std::istringstream wl_is(LoadFromFile(wl_path));
  const Workload wl = ReadWorkload(wl_is);
  std::istringstream cl_is(LoadFromFile(groups_path));
  const ClusteringFile clustering = ReadClustering(cl_is);

  const auto model = ModelFor(net, wl, flags);
  const Grid grid(wl, *model);
  if (clustering.assignment.size() > grid.hyper_cells().size())
    Usage("clustering file does not match this workload (too many cells)");

  DeliverySimulator sim(net.graph, wl);
  Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 4)));
  const auto events =
      SampleEvents(sim, *model, flags.get_count("events", 300), rng);
  const BaselineCosts base = EvaluateBaselines(sim, events);

  const GridMatcher matcher(grid, clustering.assignment, clustering.num_groups,
                            flags.get_double("threshold", 0.0));
  const ClusteredCosts c = EvaluateMatcher(sim, events, MatcherFn(matcher));

  std::printf("events           %zu\n", events.size());
  std::printf("unicast          %.0f\n", base.unicast);
  std::printf("broadcast        %.0f\n", base.broadcast);
  std::printf("ideal multicast  %.0f\n", base.ideal);
  std::printf("clustered (net)  %.0f  improvement %.1f%%\n", c.network,
              ImprovementPercent(c.network, base));
  std::printf("clustered (app)  %.0f  improvement %.1f%%\n", c.applevel,
              ImprovementPercent(c.applevel, base));
  std::printf("multicast events %zu, unicast fallback %zu, wasted %zu\n",
              c.multicast_events, c.unicast_events, c.wasted_deliveries);
  return 0;
}

// --- broker subcommands ---------------------------------------------------

BrokerOptions BrokerOptionsFromFlags(const Flags& flags) {
  BrokerOptions opts;
  opts.group.num_groups = flags.get_count("groups", 100);
  opts.group.max_cells = flags.get_count("cells", 6000);
  opts.group.matcher_threshold = flags.get_double("threshold", 0.0);
  opts.refresh.churn_fraction = flags.get_double("refresh-churn", 0.05);
  opts.refresh.waste_ratio = flags.get_double("refresh-waste", 0.5);
  opts.refresh.min_messages = flags.get_count("refresh-min-messages", 200);
  opts.group.closure = flags.get_bool("closure", false);
  opts.obs.trace_sample = flags.get_count("trace-sample", 0);
  return opts;
}

// Everything the process measured: the broker's registry plus the
// process-wide one (thread pool).  --metrics-deterministic-only restricts
// to the byte-stable subset (identical across --threads runs).
MetricsSnapshot ScrapeAll(const Broker& broker, const Flags& flags) {
  const bool runtime_too = !flags.get_bool("metrics-deterministic-only", false);
  MetricsSnapshot snap = broker.metrics().scrape(runtime_too);
  snap.merge(MetricsRegistry::Default().scrape(runtime_too));
  return snap;
}

// --metrics-out (Prometheus text) / --metrics-json side outputs shared by
// serve-replay and recover.
void WriteMetricsOutputs(const Broker& broker, const Flags& flags) {
  const std::string text_path = flags.get("metrics-out", "");
  const std::string json_path = flags.get("metrics-json", "");
  if (text_path.empty() && json_path.empty()) return;
  const MetricsSnapshot snap = ScrapeAll(broker, flags);
  if (!text_path.empty()) {
    std::ostringstream os;
    WriteMetricsText(os, snap);
    SaveToFile(text_path, os.str());
  }
  if (!json_path.empty()) {
    std::ostringstream os;
    WriteMetricsJson(os, snap);
    SaveToFile(json_path, os.str());
  }
}

void PrintBrokerReport(const Broker& broker) {
  const BrokerStats& s = broker.stats();
  std::printf("commands applied  %llu  (sub %llu / unsub %llu / upd %llu / "
              "pub %llu)\n",
              (unsigned long long)s.commands_applied,
              (unsigned long long)s.subscribes,
              (unsigned long long)s.unsubscribes,
              (unsigned long long)s.updates, (unsigned long long)s.publishes);
  std::printf("matched events    %llu  (multicast %llu, unicast %llu)\n",
              (unsigned long long)s.events_matched,
              (unsigned long long)s.multicast_events,
              (unsigned long long)s.unicast_events);
  std::printf("messages emitted  %llu  (wasted %llu)\n",
              (unsigned long long)s.messages_emitted,
              (unsigned long long)s.wasted_deliveries);
  std::printf("refreshes         %llu  (full rebuilds %llu)\n",
              (unsigned long long)s.refreshes,
              (unsigned long long)s.full_rebuilds);
  std::printf("journal bytes     %llu\n", (unsigned long long)s.journal_bytes);
  if (s.replayed_records > 0 || s.snapshot_bytes > 0)
    std::printf("recovered from    %llu snapshot bytes + %llu replayed "
                "records\n",
                (unsigned long long)s.snapshot_bytes,
                (unsigned long long)s.replayed_records);
  std::printf("live subscribers  %zu\n", broker.live_subscribers());
  std::printf("final seq         %llu\n", (unsigned long long)broker.seq());
  std::printf("state digest      %016llx\n",
              (unsigned long long)broker.state_digest());
}

void SaveSnapshotFile(const std::string& path, const Broker& broker) {
  std::ostringstream os;
  broker.write_snapshot(os);
  // Atomic replace: a crash mid-checkpoint must leave the previous
  // snapshot readable (docs/OPERATIONS.md, "Snapshot protocol").
  SaveToFileAtomic(path, os.str());
}

// Parse the durable artifact at `path` with `read`.  A damaged file (a
// checksum mismatch, a torn trailer, a bad record) fails with its path in
// the message, so the operator knows which file to replace
// (docs/OPERATIONS.md, "Damage matrix").
template <typename Read>
auto ReadArtifact(const std::string& path, Read read) {
  std::istringstream is(LoadFromFile(path));
  try {
    return read(is);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

// Bootstrap a seq-0 snapshot from a workload: cold-cluster it once and
// persist the refresh-boundary state so serve-replay / recover / replicas
// can start from a common, durable baseline.
int Snapshot(const Flags& flags) {
  flags.require_known(CliFlagNames("snapshot"));
  const std::string net_path = flags.get("net", "");
  const std::string wl_path = flags.get("workload", "");
  const std::string out = flags.get("out", "");
  if (net_path.empty() || wl_path.empty() || out.empty())
    Usage("snapshot requires --net, --workload and --out");
  std::istringstream net_is(LoadFromFile(net_path));
  const TransitStubNetwork net = ReadTransitStub(net_is);
  std::istringstream wl_is(LoadFromFile(wl_path));
  Workload wl = ReadWorkload(wl_is);

  const auto model = ModelFor(net, wl, flags);
  const Broker broker(std::move(wl), *model, net.graph,
                      BrokerOptionsFromFlags(flags));
  SaveSnapshotFile(out, broker);
  std::printf("wrote %s: seq 0, %zu subscribers, %zu clustered cells\n",
              out.c_str(), broker.workload().num_subscribers(),
              broker.snapshot().assignment.size());
  return 0;
}

// Drive a broker from a synthetic trading-day trace with optional
// subscription churn, journaling every command and checkpointing along the
// way.  Kill it at any point; `recover` resumes from the files.
int ServeReplay(const Flags& flags) {
  flags.require_known(CliFlagNames("serve-replay"));
  const std::string net_path = flags.get("net", "");
  const std::string wl_path = flags.get("workload", "");
  if (net_path.empty() || wl_path.empty())
    Usage("serve-replay requires --net and --workload");
  std::istringstream net_is(LoadFromFile(net_path));
  const TransitStubNetwork net = ReadTransitStub(net_is);
  std::istringstream wl_is(LoadFromFile(wl_path));
  Workload wl = ReadWorkload(wl_is);
  if (IsSection3Space(wl.space))
    Usage("serve-replay drives a stock trace; --workload must be a stock "
          "workload (gen-workload --model=stock)");

  const auto model = ModelFor(net, wl, flags);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  const auto num_events = flags.get_count("events", 2000);
  const auto churn_every = flags.get_count("churn-every", 0);
  const std::string journal_path = flags.get("journal", "");
  const std::string snapshot_path = flags.get("snapshot", "");
  const auto snapshot_every =
      static_cast<std::uint64_t>(flags.get_count("snapshot-every", 500));

  // The command stream is precomputed (trace + churn policy); chaos runs
  // drive the very same schedule, so a serve-replay journal and a chaos
  // journal for one seed are interchangeable.
  const std::vector<JournalRecord> schedule =
      BuildChaosSchedule(net, wl, num_events, churn_every, seed);

  ManualClock clock;
  Broker broker(std::move(wl), *model, net.graph, BrokerOptionsFromFlags(flags),
                &clock);

  std::ofstream journal;
  if (!journal_path.empty()) {
    journal.open(journal_path, std::ios::trunc);
    if (!journal) Usage("cannot open --journal file " + journal_path);
    broker.set_journal(&journal);
  }
  if (!snapshot_path.empty()) SaveSnapshotFile(snapshot_path, broker);

  const std::uint64_t snapshot_base = broker.seq();
  std::size_t events_replayed = 0;
  double last_timestamp = 0.0;
  for (const JournalRecord& rec : schedule) {
    clock.advance_to(rec.cmd.time_ms);
    try {
      broker.apply(rec);
    } catch (const BrokerDegradedError& e) {
      // Journal durability is gone and the retry budget is spent: stop
      // accepting the stream, report what the broker managed to make
      // durable, and exit non-zero so supervisors notice.  The journal on
      // disk plus the last snapshot recover to exactly broker.seq().
      std::fprintf(stderr, "error: %s\n", e.what());
      std::fprintf(stderr,
                   "broker entered degraded (read-only) mode at seq %llu; "
                   "see docs/OPERATIONS.md (\"Degraded mode\")\n",
                   (unsigned long long)broker.seq());
      // Snapshot writes still work while degraded (different file, atomic
      // replace); checkpoint once more so the durability counters — the
      // fault's provenance — survive into `recover` / `stats`.
      if (!snapshot_path.empty()) {
        try {
          SaveSnapshotFile(snapshot_path, broker);
        } catch (const std::exception& snap_err) {
          std::fprintf(stderr, "warning: degraded-exit checkpoint failed: %s\n",
                       snap_err.what());
        }
      }
      PrintBrokerReport(broker);
      WriteMetricsOutputs(broker, flags);
      return 1;
    }
    if (rec.cmd.type == BrokerCommandType::kPublish) {
      ++events_replayed;
      last_timestamp = rec.cmd.time_ms / 1000.0;
      if (!snapshot_path.empty() && snapshot_every > 0 &&
          (broker.seq() - snapshot_base) % snapshot_every == 0)
        SaveSnapshotFile(snapshot_path, broker);
    }
  }
  if (!snapshot_path.empty()) SaveSnapshotFile(snapshot_path, broker);

  std::printf("replayed %zu trace events over %.1f simulated seconds\n\n",
              events_replayed, last_timestamp);
  PrintBrokerReport(broker);
  WriteMetricsOutputs(broker, flags);
  const std::string trace_path = flags.get("trace-out", "");
  if (!trace_path.empty()) {
    std::ostringstream os;
    WriteTraceJson(os, broker.trace());
    SaveToFile(trace_path, os.str());
  }
  return 0;
}

// --- fleet serve daemon ---------------------------------------------------

// The fleet registry plus every live shard's registry under shard="k"
// labels (FleetScrape), plus the process-wide registry (thread pool).
MetricsSnapshot ScrapeFleet(const BrokerFleet& fleet, const Flags& flags) {
  const bool runtime_too = !flags.get_bool("metrics-deterministic-only", false);
  MetricsSnapshot snap = FleetScrape(fleet, runtime_too);
  snap.merge(MetricsRegistry::Default().scrape(runtime_too));
  return snap;
}

void WriteFleetMetricsOutputs(const BrokerFleet& fleet, const Flags& flags) {
  const std::string text_path = flags.get("metrics-out", "");
  const std::string json_path = flags.get("metrics-json", "");
  if (text_path.empty() && json_path.empty()) return;
  const MetricsSnapshot snap = ScrapeFleet(fleet, flags);
  if (!text_path.empty()) {
    std::ostringstream os;
    WriteMetricsText(os, snap);
    SaveToFile(text_path, os.str());
  }
  if (!json_path.empty()) {
    std::ostringstream os;
    WriteMetricsJson(os, snap);
    SaveToFile(json_path, os.str());
  }
}

void PrintFleetReport(const BrokerFleet& fleet) {
  std::printf("fleet shards      %zu\n", fleet.num_shards());
  for (std::size_t k = 0; k < fleet.num_shards(); ++k) {
    const Broker& b = fleet.shard(k);
    std::printf("  shard %zu         seq %llu, %zu subscribers%s\n", k,
                (unsigned long long)fleet.shard_seq(k),
                b.workload().num_subscribers(),
                b.degraded() ? ", degraded" : "");
  }
  std::printf("live subscribers  %zu\n", fleet.live_subscribers());
  std::printf("final fleet seq   %llu\n", (unsigned long long)fleet.seq());
  std::printf("match chain       %016llx\n",
              (unsigned long long)fleet.match_chain());
  std::printf("fleet digest      %016llx\n",
              (unsigned long long)fleet.state_digest());
}

// Host a sharded BrokerFleet over the trading-day trace on the
// deterministic event loop: trace commands fire at their recorded
// timestamps, a heal-probe timer keeps degraded shards from being
// terminal, and --base makes the run durable (manifest + per-shard
// snapshots + fleet and shard journals).  --resume rebuilds the fleet
// from those artifacts and picks the trace up where it left off;
// --oracle-check replays a single-broker oracle and requires a
// bit-identical fleet digest (the tentpole invariant, DESIGN.md §11).
int Serve(const Flags& flags) {
  flags.require_known(CliFlagNames("serve"));
  const std::string net_path = flags.get("net", "");
  const std::string wl_path = flags.get("workload", "");
  if (net_path.empty() || wl_path.empty())
    Usage("serve requires --net and --workload");
  std::istringstream net_is(LoadFromFile(net_path));
  const TransitStubNetwork net = ReadTransitStub(net_is);
  std::istringstream wl_is(LoadFromFile(wl_path));
  const Workload wl = ReadWorkload(wl_is);
  if (IsSection3Space(wl.space))
    Usage("serve drives a stock trace; --workload must be a stock workload "
          "(gen-workload --model=stock)");

  const auto model = ModelFor(net, wl, flags);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  const auto num_events = flags.get_count("events", 2000);
  const auto churn_every = flags.get_count("churn-every", 0);
  const std::string base = flags.get("base", "");
  const auto snapshot_every =
      static_cast<std::uint64_t>(flags.get_count("snapshot-every", 500));
  const double heal_every = flags.get_double("heal-every-ms", 1000.0);
  const bool resume = flags.get_bool("resume", false);
  const bool oracle_check = flags.get_bool("oracle-check", false);
  const double watch_every = flags.get_double("watch-every-ms", 500.0);
  const auto audit_every =
      static_cast<std::uint64_t>(flags.get_count("audit-every", 64));
  WatchdogOptions wopts;
  wopts.skew_ratio = flags.get_double("slo-skew", 4.0);
  wopts.max_backlog = flags.get_count("slo-backlog", 64);
  if (resume && base.empty()) Usage("--resume requires --base");
  if (heal_every <= 0.0) Usage("--heal-every-ms must be positive");
  if (watch_every < 0.0) Usage("--watch-every-ms must be >= 0");

  const std::vector<JournalRecord> schedule =
      BuildChaosSchedule(net, wl, num_events, churn_every, seed);
  const std::size_t dims = wl.space.dims();

  FleetOptions fopts;
  fopts.num_shards = flags.get_count("shards", 2);
  if (fopts.num_shards == 0) Usage("--shards must be >= 1");
  fopts.broker = BrokerOptionsFromFlags(flags);

  ManualClock clock;
  std::unique_ptr<BrokerFleet> fleet;
  std::ofstream fleet_journal;
  std::vector<std::unique_ptr<std::ofstream>> shard_journals;

  if (!resume) {
    fleet = std::make_unique<BrokerFleet>(wl, *model, net.graph, fopts, &clock);
    if (!base.empty()) {
      fleet_journal.open(FleetJournalPath(base), std::ios::trunc);
      if (!fleet_journal) Usage("cannot open " + FleetJournalPath(base));
      fleet->set_fleet_journal(&fleet_journal, /*write_header=*/true);
      shard_journals.resize(fleet->num_shards());
      for (std::size_t k = 0; k < fleet->num_shards(); ++k) {
        shard_journals[k] = std::make_unique<std::ofstream>(
            FleetShardJournalPath(base, k), std::ios::trunc);
        if (!*shard_journals[k])
          Usage("cannot open " + FleetShardJournalPath(base, k));
        fleet->set_shard_journal(k, shard_journals[k].get(),
                                 /*write_header=*/true);
      }
    }
  } else {
    const FleetManifest manifest =
        ReadArtifact(FleetManifestPath(base), ReadFleetManifest);
    const std::size_t nshards = manifest.shard_seqs.size();
    std::vector<BrokerSnapshot> snaps;
    snaps.reserve(nshards);
    std::vector<std::vector<JournalRecord>> shard_recs(nshards);
    for (std::size_t k = 0; k < nshards; ++k) {
      snaps.push_back(
          ReadArtifact(FleetShardSnapshotPath(base, k), ReadBrokerSnapshot));
      JournalReadResult jr =
          ReadArtifact(FleetShardJournalPath(base, k), ReadJournalLenient);
      if (jr.torn_tail)
        std::fprintf(stderr, "warning: %s: dropped torn journal tail (%s)\n",
                     FleetShardJournalPath(base, k).c_str(),
                     jr.tail_error.c_str());
      shard_recs[k] = std::move(jr.journal.records);
    }
    JournalReadResult fj =
        ReadArtifact(FleetJournalPath(base), ReadJournalLenient);
    if (fj.torn_tail)
      std::fprintf(stderr, "warning: %s: dropped torn journal tail (%s)\n",
                   FleetJournalPath(base).c_str(), fj.tail_error.c_str());
    if (fj.journal.dims != dims)
      Usage("fleet journal dimensionality does not match the workload");

    // Truncate every journal back to its checkpoint seq before the sinks
    // re-attach: the fleet-tail replay below then re-appends byte-identical
    // records, so the files converge to exactly their pre-restart content
    // (a torn tail simply never comes back).
    const auto rewrite = [&](const std::string& path,
                             const std::vector<JournalRecord>& recs,
                             std::uint64_t upto) {
      std::ostringstream os;
      WriteJournalHeader(os, dims);
      for (const JournalRecord& r : recs)
        if (r.seq <= upto) WriteJournalRecord(os, r, dims);
      SaveToFile(path, os.str());
    };
    rewrite(FleetJournalPath(base), fj.journal.records, manifest.seq);
    for (std::size_t k = 0; k < nshards; ++k)
      rewrite(FleetShardJournalPath(base, k), shard_recs[k],
              manifest.shard_seqs[k]);

    fopts.num_shards = nshards;
    fleet = BrokerFleet::Recover(manifest, snaps, shard_recs, *model,
                                 net.graph, fopts, &clock);

    fleet_journal.open(FleetJournalPath(base), std::ios::app);
    if (!fleet_journal) Usage("cannot open " + FleetJournalPath(base));
    fleet->set_fleet_journal(&fleet_journal, /*write_header=*/false);
    shard_journals.resize(nshards);
    for (std::size_t k = 0; k < nshards; ++k) {
      shard_journals[k] = std::make_unique<std::ofstream>(
          FleetShardJournalPath(base, k), std::ios::app);
      if (!*shard_journals[k])
        Usage("cannot open " + FleetShardJournalPath(base, k));
      fleet->set_shard_journal(k, shard_journals[k].get(),
                               /*write_header=*/false);
    }
    std::size_t tail_replayed = 0;
    for (const JournalRecord& rec : fj.journal.records)
      if (rec.seq > manifest.seq) {
        fleet->apply(rec);
        ++tail_replayed;
      }
    std::fprintf(stderr,
                 "resumed %zu shards from %s at fleet seq %llu "
                 "(%zu fleet journal tail records replayed)\n",
                 nshards, FleetManifestPath(base).c_str(),
                 (unsigned long long)manifest.seq, tail_replayed);
  }

  const std::uint64_t start_seq = fleet->seq();
  if (start_seq > schedule.size())
    Usage("--events is smaller than the resumed fleet's sequence number; "
          "pass the original trace length");

  // SLO watchdog + invariant auditor.  Alerts go to stderr as they fire
  // (the report prints a summary); they never change the exit code — a
  // slow shard is an operator signal, not a failed run.
  FleetWatchdog watchdog(wopts, &fleet->metrics());
  std::size_t alerts_total = 0;
  const auto report_alerts = [&](const std::vector<WatchdogAlert>& alerts) {
    alerts_total += alerts.size();
    for (const WatchdogAlert& a : alerts)
      std::fprintf(stderr, "watchdog: %s: %s\n", WatchdogAlertKindName(a.kind),
                   a.detail.c_str());
  };
  const auto run_audit = [&] {
    report_alerts(watchdog.audit(clock.now_ms(), CollectShardAudit(*fleet)));
  };

  const auto do_checkpoint = [&]() {
    if (base.empty() || fleet->stalled()) return;
    std::ostringstream ms;
    WriteFleetManifest(ms, fleet->checkpoint());
    SaveToFileAtomic(FleetManifestPath(base), ms.str());
    for (std::size_t k = 0; k < fleet->num_shards(); ++k)
      SaveSnapshotFile(FleetShardSnapshotPath(base, k), fleet->shard(k));
  };
  if (!resume) do_checkpoint();  // seq-0 baseline, like serve-replay

  EventLoop loop(&clock);
  std::deque<JournalRecord> backlog;  // commands parked during a stall

  // Only ever called while !stalled(): a FleetDegradedError here is the
  // mid-record kind — the record is already journaled and pending inside
  // the fleet, so discarding our copy is safe (the heal timer finishes it).
  const auto apply_one = [&](const JournalRecord& rec) {
    try {
      fleet->apply(rec);
    } catch (const FleetDegradedError&) {
      return;
    }
    if (snapshot_every > 0 && fleet->seq() % snapshot_every == 0)
      do_checkpoint();
    if (audit_every > 0 && fleet->seq() % audit_every == 0) run_audit();
  };
  const auto drain = [&]() {
    while (!backlog.empty() && !fleet->stalled()) {
      apply_one(backlog.front());
      backlog.pop_front();
    }
  };

  for (std::size_t i = static_cast<std::size_t>(start_seq);
       i < schedule.size(); ++i) {
    loop.at(schedule[i].cmd.time_ms, [&, i] {
      drain();  // parked commands go first: the stream stays in seq order
      if (fleet->stalled()) {
        backlog.push_back(schedule[i]);
        return;
      }
      apply_one(schedule[i]);
    });
  }
  loop.every(heal_every, heal_every, [&] {
    if (fleet->heal()) drain();
  });
  if (watch_every > 0.0)
    loop.every(watch_every, watch_every, [&] {
      report_alerts(watchdog.check(clock.now_ms(),
                                   fleet->shard_publish_histograms(),
                                   backlog.size()));
    });
  loop.run();

  // A stall near the end of the trace parks the remainder in the backlog
  // and the one-shots drain before the next heal firing; give the fleet a
  // bounded number of extra probes to finish the job.
  for (int probes = 0; (fleet->stalled() || !backlog.empty()) && probes < 8;
       ++probes) {
    fleet->heal();
    drain();
  }
  const bool stalled_out = fleet->stalled() || !backlog.empty();
  if (stalled_out)
    std::fprintf(stderr,
                 "fleet stalled at seq %llu with %zu commands parked; a "
                 "shard is degraded and heal probes cannot clear it (see "
                 "docs/OPERATIONS.md, \"Serve mode\")\n",
                 (unsigned long long)fleet->seq(), backlog.size());
  else
    do_checkpoint();
  // Closing watchdog pass: a skew or divergence that appeared after the
  // last timer firing still surfaces (and a clean run stays silent).
  if (watch_every > 0.0)
    report_alerts(watchdog.check(
        clock.now_ms(), fleet->shard_publish_histograms(), backlog.size()));
  if (audit_every > 0) run_audit();

  bool oracle_ok = true;
  if (oracle_check) {
    FleetOracle oracle(wl, *model, net.graph, fopts.broker);
    for (const JournalRecord& rec : schedule)
      if (rec.seq <= fleet->seq()) oracle.apply(rec);
    const std::uint64_t want = oracle.state_digest();
    oracle_ok = want == fleet->state_digest();
    std::printf("oracle digest     %016llx  (%s)\n", (unsigned long long)want,
                oracle_ok ? "match" : "MISMATCH");
  }

  std::size_t events_served = 0;
  double last_timestamp = 0.0;
  for (std::size_t i = static_cast<std::size_t>(start_seq);
       i < schedule.size() && schedule[i].seq <= fleet->seq(); ++i) {
    if (schedule[i].cmd.type == BrokerCommandType::kPublish) {
      ++events_served;
      last_timestamp = schedule[i].cmd.time_ms / 1000.0;
    }
  }
  std::printf("served %zu trace events over %.1f simulated seconds on %zu "
              "shards\n\n",
              events_served, last_timestamp, fleet->num_shards());
  PrintFleetReport(*fleet);
  std::printf("watchdog          %zu alerts (%llu checks, %llu audits)\n",
              alerts_total, (unsigned long long)watchdog.checks(),
              (unsigned long long)watchdog.audits());
  WriteFleetMetricsOutputs(*fleet, flags);
  const std::string trace_path = flags.get("trace-out", "");
  if (!trace_path.empty()) {
    std::ostringstream os;
    WriteTraceJson(os, fleet->collect_spans(), fleet->trace_recorded(),
                   fleet->trace_dropped());
    SaveToFile(trace_path, os.str());
  }
  return (stalled_out || !oracle_ok) ? 1 : 0;
}

// Text dashboard over a fleet run: a lean `serve` — fresh fleet, no
// durability — that prints per-shard health frames (seq, subscribers,
// publish-latency p50/p99 via HistogramQuantile, degraded markers) driven
// off the event loop: every --interval-ms of trace time, or one final
// frame when the interval is 0.  Watchdog alerts stream to stderr.
int Top(const Flags& flags) {
  flags.require_known(CliFlagNames("top"));
  const std::string net_path = flags.get("net", "");
  const std::string wl_path = flags.get("workload", "");
  if (net_path.empty() || wl_path.empty())
    Usage("top requires --net and --workload");
  std::istringstream net_is(LoadFromFile(net_path));
  const TransitStubNetwork net = ReadTransitStub(net_is);
  std::istringstream wl_is(LoadFromFile(wl_path));
  const Workload wl = ReadWorkload(wl_is);
  if (IsSection3Space(wl.space))
    Usage("top drives a stock trace; --workload must be a stock workload "
          "(gen-workload --model=stock)");

  const auto model = ModelFor(net, wl, flags);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  const auto num_events = flags.get_count("events", 2000);
  const auto churn_every = flags.get_count("churn-every", 0);
  const double interval = flags.get_double("interval-ms", 0.0);
  if (interval < 0.0) Usage("--interval-ms must be >= 0");

  FleetOptions fopts;
  fopts.num_shards = flags.get_count("shards", 2);
  if (fopts.num_shards == 0) Usage("--shards must be >= 1");
  fopts.broker = BrokerOptionsFromFlags(flags);

  const std::vector<JournalRecord> schedule =
      BuildChaosSchedule(net, wl, num_events, churn_every, seed);

  ManualClock clock;
  BrokerFleet fleet(wl, *model, net.graph, fopts, &clock);
  WatchdogOptions wopts;
  wopts.skew_ratio = flags.get_double("slo-skew", 4.0);
  wopts.max_backlog = flags.get_count("slo-backlog", 64);
  FleetWatchdog watchdog(wopts, &fleet.metrics());
  std::size_t alerts_total = 0;
  const auto report_alerts = [&](const std::vector<WatchdogAlert>& alerts) {
    alerts_total += alerts.size();
    for (const WatchdogAlert& a : alerts)
      std::fprintf(stderr, "watchdog: %s: %s\n", WatchdogAlertKindName(a.kind),
                   a.detail.c_str());
  };

  EventLoop loop(&clock);
  std::deque<JournalRecord> backlog;
  const auto apply_one = [&](const JournalRecord& rec) {
    try {
      fleet.apply(rec);
    } catch (const FleetDegradedError&) {
    }
  };
  const auto drain = [&] {
    while (!backlog.empty() && !fleet.stalled()) {
      apply_one(backlog.front());
      backlog.pop_front();
    }
  };

  const auto frame = [&] {
    const std::vector<const Histogram*> hists =
        fleet.shard_publish_histograms();
    std::printf("t=%.1fs seq=%llu live=%zu stalled=%d backlog=%zu alerts=%zu\n",
                clock.now_ms() / 1000.0, (unsigned long long)fleet.seq(),
                fleet.live_subscribers(), fleet.stalled() ? 1 : 0,
                backlog.size(), alerts_total);
    for (std::size_t k = 0; k < fleet.num_shards(); ++k) {
      const Broker& b = fleet.shard(k);
      const Histogram* h = hists[k];
      const double p50 =
          HistogramQuantile(h->upper_bounds(), h->bucket_counts(), 0.5);
      const double p99 =
          HistogramQuantile(h->upper_bounds(), h->bucket_counts(), 0.99);
      std::printf("  shard %zu  seq=%llu subs=%zu publishes=%llu "
                  "p50=%.3fms p99=%.3fms%s\n",
                  k, (unsigned long long)fleet.shard_seq(k),
                  b.workload().num_subscribers(), (unsigned long long)h->count(),
                  p50, p99, b.degraded() ? " DEGRADED" : "");
    }
  };

  for (std::size_t i = 0; i < schedule.size(); ++i) {
    loop.at(schedule[i].cmd.time_ms, [&, i] {
      drain();
      if (fleet.stalled()) {
        backlog.push_back(schedule[i]);
        return;
      }
      apply_one(schedule[i]);
    });
  }
  loop.every(1000.0, 1000.0, [&] {  // heal probe, as in serve
    if (fleet.heal()) drain();
  });
  if (interval > 0.0)
    loop.every(interval, interval, [&] {
      report_alerts(watchdog.check(
          clock.now_ms(), fleet.shard_publish_histograms(), backlog.size()));
      frame();
    });
  loop.run();
  for (int probes = 0; (fleet.stalled() || !backlog.empty()) && probes < 8;
       ++probes) {
    fleet.heal();
    drain();
  }
  report_alerts(watchdog.check(clock.now_ms(),
                               fleet.shard_publish_histograms(),
                               backlog.size()));
  report_alerts(watchdog.audit(clock.now_ms(), CollectShardAudit(fleet)));
  frame();
  WriteFleetMetricsOutputs(fleet, flags);
  return (fleet.stalled() || !backlog.empty()) ? 1 : 0;
}

// Shared recovery path for `recover` and `stats`: rebuild a broker from
// snapshot + journal tail.
std::unique_ptr<Broker> RecoverFromFlags(const Flags& flags,
                                         TransitStubNetwork* net_out,
                                         std::unique_ptr<PublicationModel>* model_out) {
  const std::string net_path = flags.get("net", "");
  const std::string snapshot_path = flags.get("snapshot", "");
  if (net_path.empty() || snapshot_path.empty())
    Usage("recover/stats requires --net and --snapshot");
  std::istringstream net_is(LoadFromFile(net_path));
  *net_out = ReadTransitStub(net_is);

  const BrokerSnapshot snap = ReadArtifact(snapshot_path, ReadBrokerSnapshot);

  std::vector<JournalRecord> tail;
  const std::string journal_path = flags.get("journal", "");
  if (!journal_path.empty()) {
    // Lenient read: a torn tail is the normal residue of a crash
    // mid-append and recovery proceeds to the last complete record.
    // Interior damage (a record failing its CRC) or a sequence gap still
    // aborts (the error names the code; see docs/OPERATIONS.md, "Damage
    // matrix").
    JournalReadResult jr = ReadArtifact(journal_path, ReadJournalLenient);
    if (jr.torn_tail)
      std::fprintf(stderr,
                   "warning: %s: dropped torn journal tail (%s); recovering "
                   "to the last complete record\n",
                   journal_path.c_str(), jr.tail_error.c_str());
    if (jr.journal.dims != snap.workload.space.dims())
      Usage("journal dimensionality does not match the snapshot");
    tail = std::move(jr.journal.records);
  }

  *model_out = ModelFor(*net_out, snap.workload, flags);
  BrokerOptions opts = BrokerOptionsFromFlags(flags);
  // The snapshot is authoritative for the group count; an explicit
  // --groups still wins (and a mismatch is rejected by the broker).
  if (!flags.has("groups"))
    opts.group.num_groups = static_cast<std::size_t>(snap.num_groups);
  return Broker::Recover(snap, tail, **model_out, net_out->graph, opts);
}

// Rebuild a broker from snapshot + journal tail and print the same report
// serve-replay prints: at equal sequence numbers the state digests match.
int Recover(const Flags& flags) {
  flags.require_known(CliFlagNames("recover"));
  TransitStubNetwork net;
  std::unique_ptr<PublicationModel> model;
  const auto broker = RecoverFromFlags(flags, &net, &model);
  PrintBrokerReport(*broker);
  WriteMetricsOutputs(*broker, flags);
  return 0;
}

// Recover and dump every metric to stdout: Prometheus text, a blank line,
// then the JSON form.  All counters/gauges are deterministic functions of
// snapshot + journal, so two invocations print identical values.
int Stats(const Flags& flags) {
  flags.require_known(CliFlagNames("stats"));
  TransitStubNetwork net;
  std::unique_ptr<PublicationModel> model;
  const auto broker = RecoverFromFlags(flags, &net, &model);
  const MetricsSnapshot snap = ScrapeAll(*broker, flags);
  std::ostringstream text;
  WriteMetricsText(text, snap);
  std::ostringstream json;
  WriteMetricsJson(json, snap);
  std::fputs(text.str().c_str(), stdout);
  std::fputs("\n", stdout);
  std::fputs(json.str().c_str(), stdout);
  return 0;
}

// Scripted kill/recover cycles against an in-memory disk; exits 0 only if
// every recovered incarnation stayed bit-identical to the un-faulted
// reference run.
int Chaos(const Flags& flags) {
  flags.require_known(CliFlagNames("chaos"));
  const std::string net_path = flags.get("net", "");
  const std::string wl_path = flags.get("workload", "");
  if (net_path.empty() || wl_path.empty())
    Usage("chaos requires --net and --workload");
  std::istringstream net_is(LoadFromFile(net_path));
  const TransitStubNetwork net = ReadTransitStub(net_is);
  std::istringstream wl_is(LoadFromFile(wl_path));
  const Workload wl = ReadWorkload(wl_is);
  if (IsSection3Space(wl.space))
    Usage("chaos drives a stock trace; --workload must be a stock workload "
          "(gen-workload --model=stock)");

  const auto model = ModelFor(net, wl, flags);
  ChaosOptions copts;
  copts.num_events = flags.get_count("events", 400);
  copts.churn_every = flags.get_count("churn-every", 5);
  copts.seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  copts.chaos_seed = static_cast<std::uint64_t>(flags.get_int("chaos-seed", 1));
  copts.cycles = flags.get_count("cycles", 200);
  copts.snapshot_every =
      static_cast<std::uint64_t>(flags.get_count("snapshot-every", 50));
  copts.broker = BrokerOptionsFromFlags(flags);

  const ChaosReport report = RunChaos(net, wl, *model, copts);
  std::fputs(FormatChaosReport(report).c_str(), stdout);
  return report.digests_match && report.digest_mismatches == 0 ? 0 : 1;
}

int Run(int argc, char** argv) {
  if (argc < 2) Usage();
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    // Requested help is not an error; the text is the cli_spec table,
    // byte-identical to the block embedded in docs/CLI.md.
    std::fputs(CliUsageText().c_str(), stdout);
    return 0;
  }
  const Flags flags(argc - 1, argv + 1);
  try {
    ConfigureThreadsFromFlags(flags);
    try {
      FailPoints::Instance().configure_from_env();
      if (flags.has("failpoints-seed"))
        FailPoints::Instance().set_seed(
            static_cast<std::uint64_t>(flags.get_int("failpoints-seed", 0)));
      if (flags.has("failpoints"))
        FailPoints::Instance().configure(flags.get("failpoints", ""));
    } catch (const std::invalid_argument& e) {
      Usage(e.what());  // a malformed entry or an unknown fail-point site
    }
    if (cmd == "gen-net") return GenNet(flags);
    if (cmd == "gen-workload") return GenWorkload(flags);
    if (cmd == "cluster") return Cluster(flags);
    if (cmd == "evaluate") return Evaluate(flags);
    if (cmd == "snapshot") return Snapshot(flags);
    if (cmd == "serve-replay") return ServeReplay(flags);
    if (cmd == "serve") return Serve(flags);
    if (cmd == "top") return Top(flags);
    if (cmd == "recover") return Recover(flags);
    if (cmd == "stats") return Stats(flags);
    if (cmd == "chaos") return Chaos(flags);
  } catch (const FlagError& e) {
    Usage(e.what());  // a malformed, negative or unknown flag
  } catch (const std::exception& e) {
    // Covers InjectedCrash too: an armed --failpoints crash behaves like
    // the process death it simulates (exit 1, journal left as-is).
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  Usage("unknown command '" + cmd + "'");
}

}  // namespace
}  // namespace pubsub

int main(int argc, char** argv) { return pubsub::Run(argc, argv); }
