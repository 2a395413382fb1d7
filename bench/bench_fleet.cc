// Fleet fan-out throughput vs shard count (serve-daemon tentpole).
//
// Drives the serve-replay command stream (publishes + churn) through a
// BrokerFleet at each shard count in --shards_list and reports events/s,
// alongside the single-broker FleetOracle baseline.  The fleet digest
// must be bit-identical across every shard count — the run aborts on a
// mismatch, making this a throughput sweep and a determinism check in
// one.
//
// Typical use:
//   bench_fleet --threads=4
//   bench_fleet --subs=2000 --events=4000 --shards_list=1,2,4,8
//
// Each shard count is timed with the full observability stack off and on —
// trace_sample=1 (every publish builds its causal span tree) plus the
// watchdog check/audit cadence the serve daemon runs — in interleaved
// arms, so the report carries the cost of watching the fleet next to the
// cost of running it.
//
// Flags: --subs=N (default 1000) --events=N (default 2000)
//        --churn-every=K (default 4) --groups=K (default 16)
//        --cells=N (default 600) --seed=S --threads=N
//        --shards_list=CSV (default 1,2,4,8)
//        --require_min_ratio=X (CI gate: exit 1 if any multi-shard
//        throughput falls below X times the 1-shard fleet's; exit 77 =
//        "skip" on hosts with < 2 hardware threads, where fan-out
//        parallelism cannot pay for its overhead)
//        --require_obs_ratio=X (CI gate: exit 1 if, at any shard count,
//        the median over 7 interleaved trials of obs-on / obs-off time
//        exceeds X; same exit-77 skip rule)
#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_report.h"
#include "broker/chaos.h"
#include "obs/clock.h"
#include "obs/watchdog.h"
#include "serve/fleet.h"
#include "sim/scenario.h"
#include "util/flags.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace pubsub {
namespace {

std::vector<std::size_t> ParseShardList(const std::string& csv) {
  std::vector<std::size_t> out;
  std::istringstream is(csv);
  std::string tok;
  while (std::getline(is, tok, ','))
    if (!tok.empty()) out.push_back(static_cast<std::size_t>(std::stoul(tok)));
  return out;
}

int Run(int argc, char** argv) {
  const Flags flags(argc, argv);
  const int threads = ConfigureThreadsFromFlags(flags);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  const auto subs = static_cast<int>(flags.get_int("subs", 1000));
  const auto events = static_cast<std::size_t>(flags.get_int("events", 2000));
  const auto churn_every =
      static_cast<std::size_t>(flags.get_int("churn-every", 4));
  const std::vector<std::size_t> shard_counts =
      ParseShardList(flags.get("shards_list", "1,2,4,8"));
  const double require_ratio = flags.get_double("require_min_ratio", 0.0);
  const double require_obs = flags.get_double("require_obs_ratio", 0.0);

  if ((require_ratio > 0.0 || require_obs > 0.0) &&
      std::thread::hardware_concurrency() < 2) {
    // On a single hardware thread the fan-out cannot recover its own
    // overhead; 77 is CTest's SKIP_RETURN_CODE.
    std::printf("fleet perf gate: SKIPPED (hardware_concurrency < 2)\n");
    return 77;
  }

  const Scenario sc = MakeStockScenario(subs, PublicationHotSpots::kOne, 91);
  const std::vector<JournalRecord> schedule =
      BuildChaosSchedule(sc.net, sc.workload, events, churn_every, seed);

  BrokerOptions bopts;
  bopts.group.num_groups = static_cast<std::size_t>(flags.get_int("groups", 16));
  bopts.group.max_cells = static_cast<std::size_t>(flags.get_int("cells", 600));

  // Single-broker baseline: what one sequenced broker does with the same
  // stream (and the digest every fleet run must reproduce).
  double oracle_events_per_s = 0.0;
  std::uint64_t want_digest = 0;
  {
    FleetOracle oracle(sc.workload, *sc.pub, sc.net.graph, bopts);
    StopwatchClock watch;
    for (const JournalRecord& rec : schedule) oracle.apply(rec);
    const double s = watch.elapsed_seconds();
    oracle_events_per_s = s > 0.0 ? static_cast<double>(events) / s : 0.0;
    want_digest = oracle.state_digest();
  }

  bench::BenchReport report("fleet");
  report.set_config("subs", subs);
  report.set_config("events", static_cast<long long>(events));
  report.set_config("churn_every", static_cast<long long>(churn_every));
  report.set_config("threads", threads);
  report.add("oracle_events_per_s", oracle_events_per_s, "events/s");

  TextTable table({"shards", "seconds", "events/s", "vs 1 shard", "obs events/s",
                   "obs cost"});
  double one_shard_eps = 0.0;
  double worst_ratio = 1.0;
  double worst_obs = 0.0;
  bool digests_ok = true;
  for (const std::size_t shards : shard_counts) {
    FleetOptions fopts;
    fopts.num_shards = shards;
    fopts.broker = bopts;
    const auto check_digest = [&](const BrokerFleet& fleet, const char* pass) {
      if (fleet.state_digest() == want_digest) return;
      digests_ok = false;
      std::fprintf(stderr,
                   "DIGEST MISMATCH at %zu shards (%s): %016llx != oracle "
                   "%016llx (bug!)\n",
                   shards, pass, (unsigned long long)fleet.state_digest(),
                   (unsigned long long)want_digest);
    };

    // One trial: an obs-off and an obs-on fleet (trace_sample=1, so every
    // publish builds its causal span tree, plus the serve daemon's watchdog
    // check/audit cadence) fed the schedule in lockstep.  Which arm applies
    // a command first alternates per command, and which fleet is built
    // first alternates per trial, so host drift and allocation order land
    // on both arms alike (MetricsOverhead's design).  Timed as one
    // obs-off pass and then one obs-on pass, such effects decided the
    // ratio: five runs of the gate read 0.96-1.11x on one host.
    struct Trial {
      double plain_s = 0.0;
      double obs_s = 0.0;
    };
    const auto run_trial = [&](bool build_obs_first) {
      FleetOptions oopts = fopts;
      oopts.broker.obs.trace_sample = 1;
      std::unique_ptr<BrokerFleet> fleets[2];  // [0] obs off, [1] obs on
      for (int k = 0; k < 2; ++k) {
        const int arm = build_obs_first ? 1 - k : k;
        fleets[arm] = std::make_unique<BrokerFleet>(
            sc.workload, *sc.pub, sc.net.graph, arm == 0 ? fopts : oopts);
      }
      FleetWatchdog watchdog(WatchdogOptions{}, &fleets[1]->metrics());
      double seconds[2] = {0.0, 0.0};
      for (std::size_t i = 0; i < schedule.size(); ++i) {
        for (std::size_t k = 0; k < 2; ++k) {
          const std::size_t arm = (i + k) % 2;
          StopwatchClock watch;
          fleets[arm]->apply(schedule[i]);
          if (arm == 1 && (i + 1) % 64 == 0) {
            const double now_ms = (seconds[1] + watch.elapsed_seconds()) * 1e3;
            watchdog.check(now_ms, fleets[1]->shard_publish_histograms(), 0);
            watchdog.audit(now_ms, CollectShardAudit(*fleets[1]));
          }
          seconds[arm] += watch.elapsed_seconds();
        }
      }
      check_digest(*fleets[0], "obs off");
      check_digest(*fleets[1], "obs on");
      return Trial{seconds[0], seconds[1]};
    };

    // The obs gate takes the median of kGateTrials trials after a discarded
    // warm-up, so one disturbed trial cannot decide it; a plain sweep
    // reports one trial.
    constexpr int kGateTrials = 7;
    const int trials = require_obs > 0.0 ? kGateTrials : 1;
    if (trials > 1) run_trial(true);
    std::vector<double> plain, obs, ratios;
    for (int t = 0; t < trials; ++t) {
      const Trial trial = run_trial(t % 2 == 0);
      plain.push_back(trial.plain_s);
      obs.push_back(trial.obs_s);
      ratios.push_back(trial.plain_s > 0.0 ? trial.obs_s / trial.plain_s : 1.0);
    }
    const auto median = [](std::vector<double>& v) {
      std::sort(v.begin(), v.end());
      return v[v.size() / 2];
    };
    const double plain_s = median(plain);
    const double obs_s = median(obs);
    const double obs_cost = median(ratios);

    const double eps = plain_s > 0.0 ? static_cast<double>(events) / plain_s : 0.0;
    const double obs_eps = obs_s > 0.0 ? static_cast<double>(events) / obs_s : 0.0;
    if (obs_cost > worst_obs) worst_obs = obs_cost;
    if (one_shard_eps == 0.0) one_shard_eps = eps;
    const double ratio = one_shard_eps > 0.0 ? eps / one_shard_eps : 1.0;
    if (shards > 1 && ratio < worst_ratio) worst_ratio = ratio;
    table.row()
        .cell(static_cast<double>(shards), 0)
        .cell(plain_s, 4)
        .cell(eps, 0)
        .cell(ratio, 2)
        .cell(obs_eps, 0)
        .cell(obs_cost, 3);
    report.add("shards_" + std::to_string(shards) + "_events_per_s", eps,
               "events/s");
    report.add("shards_" + std::to_string(shards) + "_events_per_s_obs",
               obs_eps, "events/s");
    report.add("shards_" + std::to_string(shards) + "_obs_overhead_ratio",
               obs_cost, "x");
  }
  report.add("obs_overhead_ratio_worst", worst_obs, "x");

  std::printf("fleet fan-out throughput (subs=%d, events=%zu, churn_every=%zu, "
              "threads=%d; oracle %.0f events/s):\n\n%s",
              subs, events, churn_every, threads, oracle_events_per_s,
              table.to_string().c_str());
  std::printf("\ndigest check vs single-broker oracle: %s\n",
              digests_ok ? "bit-identical at every shard count"
                         : "MISMATCH (bug!)");
  if (!digests_ok) return 1;

  if (require_ratio > 0.0) {
    std::printf("fleet perf gate: worst multi-shard ratio %.2fx (require >= "
                "%.2fx) -> %s\n",
                worst_ratio, require_ratio,
                worst_ratio >= require_ratio ? "PASS" : "FAIL");
    if (worst_ratio < require_ratio) return 1;
  }
  if (require_obs > 0.0) {
    std::printf("fleet obs gate: worst obs-on/obs-off cost %.3fx (require <= "
                "%.3fx) -> %s\n",
                worst_obs, require_obs,
                worst_obs <= require_obs ? "PASS" : "FAIL");
    if (worst_obs > require_obs) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace pubsub

int main(int argc, char** argv) { return pubsub::Run(argc, argv); }
