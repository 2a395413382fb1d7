#include "util/cli_spec.h"

#include <sstream>
#include <stdexcept>

namespace pubsub {
namespace {

std::vector<CliFlag> operator+(std::vector<CliFlag> a,
                               const std::vector<CliFlag>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

// Flags every subcommand accepts.
std::vector<CliFlag> CommonFlags() {
  return {
      {"threads", "N", "worker threads for parallel stages (0 = hardware)"},
      {"failpoints", "SPEC",
       "arm fail points, e.g. journal.flush=error*1 (see docs/OPERATIONS.md)"},
      {"failpoints-seed", "N", "seed for probabilistic (@PROB) fail points"},
  };
}

// Flags shared by the broker-hosting subcommands (snapshot, serve-replay,
// recover, stats, chaos).
std::vector<CliFlag> BrokerFlags() {
  return {
      {"groups", "K", "multicast groups (default 100)"},
      {"cells", "N", "popularity-ranked grid cells fed to clustering (6000)"},
      {"threshold", "T", "matcher waste threshold (0 = always use the group)"},
      {"refresh-churn", "F", "re-cluster after this churned fraction (0.05)"},
      {"refresh-waste", "R", "re-cluster above this window waste ratio (0.5)"},
      {"refresh-min-messages", "M",
       "minimum window messages before the waste trigger (200)"},
      {"closure", "", "closure-accelerated assignment (grid-neighbor candidates)"},
      {"metrics-out", "PATH", "write a Prometheus text metrics dump"},
      {"metrics-json", "PATH", "write a JSON metrics dump"},
      {"metrics-deterministic-only", "",
       "restrict metric dumps to the byte-stable subset"},
  };
}

std::vector<CliFlag> ModelFlags() {
  return {
      {"modes", "1|4|9", "stock-model publication hot spots (default 1)"},
      {"regionalism", "R", "section3-model regional weight (default 0.4)"},
      {"tail", "uniform|gaussian", "section3-model tail shape"},
  };
}

std::vector<CliCommand> BuildCommands() {
  std::vector<CliCommand> cmds;

  cmds.push_back(
      {"gen-net",
       "generate a transit-stub network file",
       std::vector<CliFlag>{
           {"shape", "100|300|600|sec5", "paper topology preset (sec5)"},
           {"last_mile", "C", "extra per-subscriber last-mile cost (0)"},
           {"seed", "N", "topology seed (1)"},
           {"out", "PATH", "output network file (required)"},
       } + CommonFlags()});

  cmds.push_back(
      {"gen-workload",
       "generate a subscription workload against a network",
       std::vector<CliFlag>{
           {"net", "PATH", "network file from gen-net (required)"},
           {"model", "section3|stock", "subscription model (stock)"},
           {"subs", "N", "subscriber count (1000)"},
           {"seed", "N", "workload seed (2)"},
           {"regionalism", "R", "section3-model regional weight (0.4)"},
           {"tail", "uniform|gaussian", "section3-model tail shape"},
           {"out", "PATH", "output workload file (required)"},
       } + CommonFlags()});

  cmds.push_back(
      {"cluster",
       "cluster a workload's grid cells into multicast groups",
       std::vector<CliFlag>{
           {"net", "PATH", "network file (required)"},
           {"workload", "PATH", "workload file (required)"},
           {"algo", "forgy|kmeans|mst|pairs|approx-pairs",
            "clustering algorithm (forgy)"},
           {"groups", "K", "multicast groups (100)"},
           {"cells", "N", "grid cells fed to clustering (6000)"},
           {"seed", "N", "clustering seed (3)"},
           {"out", "PATH", "output clustering file (required)"},
       } + ModelFlags() + CommonFlags()});

  cmds.push_back(
      {"evaluate",
       "score a clustering against sampled events and the paper baselines",
       std::vector<CliFlag>{
           {"net", "PATH", "network file (required)"},
           {"workload", "PATH", "workload file (required)"},
           {"groups", "PATH", "clustering file from cluster (required)"},
           {"events", "N", "events to sample (300)"},
           {"seed", "N", "event seed (4)"},
           {"threshold", "T", "matcher waste threshold (0)"},
       } + ModelFlags() + CommonFlags()});

  cmds.push_back(
      {"snapshot",
       "bootstrap a seq-0 broker snapshot from a workload",
       std::vector<CliFlag>{
           {"net", "PATH", "network file (required)"},
           {"workload", "PATH", "workload file (required)"},
           {"out", "PATH", "output snapshot file (required)"},
       } + ModelFlags() + BrokerFlags() + CommonFlags()});

  cmds.push_back(
      {"serve-replay",
       "drive a broker from a synthetic trading-day trace, journaling and "
       "checkpointing; exits 1 in degraded mode",
       std::vector<CliFlag>{
           {"net", "PATH", "network file (required)"},
           {"workload", "PATH", "stock workload file (required)"},
           {"events", "N", "trace length (2000)"},
           {"seed", "N", "trace/churn seed (7)"},
           {"churn-every", "K", "one churn command per K events (0 = none)"},
           {"journal", "PATH", "append every command to this journal file"},
           {"snapshot", "PATH", "checkpoint snapshots to this file"},
           {"snapshot-every", "N", "snapshot cadence in commands (500)"},
           {"trace-sample", "N", "retain spans for every N-th command (0)"},
           {"trace-out", "PATH", "write retained publish-path spans (JSON)"},
           {"modes", "1|4|9", "stock-model publication hot spots (1)"},
       } + BrokerFlags() + CommonFlags()});

  cmds.push_back(
      {"serve",
       "host a sharded broker fleet (clone-pattern fan-out) over the "
       "trading-day trace, with heal probes and fleet checkpoints; exits 1 "
       "on a stall or an oracle mismatch",
       std::vector<CliFlag>{
           {"net", "PATH", "network file (required)"},
           {"workload", "PATH", "stock workload file (required)"},
           {"shards", "N", "broker shards in the fleet (2)"},
           {"events", "N", "trace length (2000)"},
           {"seed", "N", "trace/churn seed (7)"},
           {"churn-every", "K", "one churn command per K events (0 = none)"},
           {"base", "PATH",
            "durable artifact base: BASE.manifest, BASE.journal, "
            "BASE.shard<k>.snap/.journal"},
           {"snapshot-every", "N", "fleet checkpoint cadence in commands (500)"},
           {"heal-every-ms", "MS", "heal-probe timer period, trace time (1000)"},
           {"resume", "", "resume from the BASE checkpoint instead of fresh"},
           {"oracle-check", "",
            "replay a single-broker oracle and require a bit-identical digest"},
           {"trace-sample", "N",
            "trace every N-th fleet seq into causal span trees (0 = off)"},
           {"trace-out", "PATH", "write the fleet trace dump (JSON spans)"},
           {"watch-every-ms", "MS",
            "watchdog timer period, trace time (500; 0 = off)"},
           {"audit-every", "N",
            "digest/seq audit cadence in fleet seqs (64; 0 = off)"},
           {"slo-skew", "R", "slow-shard alert above R x median p99 (4.0)"},
           {"slo-backlog", "N", "stall-backlog alert at N parked commands (64)"},
           {"modes", "1|4|9", "stock-model publication hot spots (1)"},
       } + BrokerFlags() + CommonFlags()});

  cmds.push_back(
      {"top",
       "text dashboard over a fleet run: per-shard seq / subscribers / "
       "publish-latency quantiles plus watchdog alerts, one-shot or on an "
       "interval",
       std::vector<CliFlag>{
           {"net", "PATH", "network file (required)"},
           {"workload", "PATH", "stock workload file (required)"},
           {"shards", "N", "broker shards in the fleet (2)"},
           {"events", "N", "trace length (2000)"},
           {"seed", "N", "trace/churn seed (7)"},
           {"churn-every", "K", "one churn command per K events (0 = none)"},
           {"interval-ms", "MS",
            "dashboard period, trace time (0 = final frame only)"},
           {"slo-skew", "R", "slow-shard alert above R x median p99 (4.0)"},
           {"slo-backlog", "N", "stall-backlog alert at N parked commands (64)"},
           {"modes", "1|4|9", "stock-model publication hot spots (1)"},
       } + BrokerFlags() + CommonFlags()});

  cmds.push_back(
      {"recover",
       "rebuild a broker from snapshot + journal and print its report "
       "(drops a torn journal tail with a warning)",
       std::vector<CliFlag>{
           {"net", "PATH", "network file (required)"},
           {"snapshot", "PATH", "snapshot file (required)"},
           {"journal", "PATH", "journal to replay past the snapshot"},
       } + ModelFlags() + BrokerFlags() + CommonFlags()});

  cmds.push_back(
      {"stats",
       "recover a broker, then dump every metric (Prometheus text + JSON)",
       std::vector<CliFlag>{
           {"net", "PATH", "network file (required)"},
           {"snapshot", "PATH", "snapshot file (required)"},
           {"journal", "PATH", "journal to replay past the snapshot"},
       } + ModelFlags() + BrokerFlags() + CommonFlags()});

  cmds.push_back(
      {"chaos",
       "scripted kill/recover cycles over the serve-replay stream; verifies "
       "bit-identical recovery after every fault",
       std::vector<CliFlag>{
           {"net", "PATH", "network file (required)"},
           {"workload", "PATH", "stock workload file (required)"},
           {"events", "N", "trace length (400)"},
           {"seed", "N", "trace/churn seed (7)"},
           {"churn-every", "K", "one churn command per K events (5)"},
           {"cycles", "N", "kill/recover cycles to force (200)"},
           {"chaos-seed", "N", "fault site/timing selection seed (1)"},
           {"snapshot-every", "N", "checkpoint cadence in commands (50)"},
           {"modes", "1|4|9", "stock-model publication hot spots (1)"},
       } + BrokerFlags() + CommonFlags()});

  return cmds;
}

}  // namespace

const std::vector<CliCommand>& CliCommands() {
  static const std::vector<CliCommand> kCommands = BuildCommands();
  return kCommands;
}

const CliCommand* FindCliCommand(const std::string& name) {
  for (const CliCommand& c : CliCommands())
    if (c.name == name) return &c;
  return nullptr;
}

std::vector<std::string> CliFlagNames(const std::string& command) {
  const CliCommand* c = FindCliCommand(command);
  if (c == nullptr)
    throw std::out_of_range("CliFlagNames: unknown command " + command);
  std::vector<std::string> names;
  names.reserve(c->flags.size());
  for (const CliFlag& f : c->flags) names.push_back(f.name);
  return names;
}

std::string CliUsageText() {
  std::ostringstream os;
  os << "usage: pubsub_cli <command> [--flag=value ...]\n\ncommands:\n";
  for (const CliCommand& c : CliCommands()) {
    os << "  " << c.name;
    for (std::size_t pad = c.name.size(); pad < 14; ++pad) os << ' ';
    os << c.summary << "\n";
  }
  os << "  help          print this text\n";
  for (const CliCommand& c : CliCommands()) {
    os << "\n" << c.name << "\n";
    for (const CliFlag& f : c.flags) {
      std::string lhs = "--" + f.name;
      if (!f.value.empty()) lhs += "=" + f.value;
      os << "  " << lhs;
      if (lhs.size() >= 34) os << "  ";  // over-long hint: keep a separator
      for (std::size_t pad = lhs.size(); pad < 34; ++pad) os << ' ';
      os << f.description << "\n";
    }
  }
  os << "\nexit codes: 0 ok, 1 runtime failure (including degraded mode or a "
        "chaos\nmismatch), 2 usage error.  Diagnostics go to stderr; reports "
        "and metric\ndumps go to stdout.  See docs/CLI.md and "
        "docs/OPERATIONS.md.\n";
  return os.str();
}

}  // namespace pubsub
