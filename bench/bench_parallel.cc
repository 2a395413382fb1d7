// Scaling of the parallel clustering & matching kernels.
//
// Times the three pool-accelerated hot paths — Forgy re-assignment, exact
// pairwise agglomeration, and batch event matching — at the configured
// thread count, and (with --verify) checks that the outputs are
// byte-identical to a --threads=1 run, which is the layer's core guarantee
// (util/thread_pool.h).  It also times one Grid construction on its own
// (grid_build_seconds); the grid build is serial, so it has no speedup
// column.
//
// Typical use:
//   bench_parallel --threads=1
//   bench_parallel --threads=4     # expect ~2-4x on the clustering phases
//
// Flags: --subs=N (default 2000) --events=N (default 4000) --cells=N
//        (default 1200) --groups=K (default 100) --dims=D (default 0 =
//        stock 4-attribute workload; D>0 = parametric D-dim workload)
//        --seed=S --threads=N --verify=BOOL (default true)
//        --report_tag=STR (suffix for BENCH_parallel_STR.json, so sweeps
//        keep one JSON per configuration)
//        --require_batch_speedup=X (CI gate: exit 1 if the batch-matching
//        speedup vs --threads=1 is below X; exit 77 = "skip" when a lane
//        probe right before or right after the timed batch phase shows the
//        host giving the --threads lanes less than 1.5x one lane's
//        throughput, where a wall-clock speedup measures the host, not the
//        code)
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_report.h"
#include "bench_util.h"
#include "core/grid.h"
#include "core/kmeans.h"
#include "core/pairwise.h"
#include "util/flags.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "obs/clock.h"

namespace pubsub {
namespace {

// The lane probe's skip bound: below it the host is not running the pool's
// lanes side by side.
constexpr double kMinLaneThroughput = 1.5;

volatile std::uint64_t g_probe_sink = 0;

// One lane's share of the lane probe: a fixed xorshift spin that touches no
// memory and no code under test.
std::uint64_t Spin(std::uint64_t x) {
  for (int i = 0; i < 10'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

// Throughput of the global pool's lanes, each running one Spin at once,
// relative to one Spin on the calling thread: about the lane count on a
// host that gives every lane a CPU, about 1 on one that time-slices them
// onto a single CPU.
double LaneProbe() {
  const auto lanes =
      static_cast<std::size_t>(ThreadPool::global().num_threads());
  std::vector<std::uint64_t> out(lanes);
  StopwatchClock one;
  out[0] = Spin(1);
  const double one_s = one.elapsed_seconds();
  StopwatchClock all;
  ParallelFor(lanes, [&out](std::size_t i) { out[i] = Spin(i + 1); });
  const double all_s = all.elapsed_seconds();
  for (const std::uint64_t x : out) g_probe_sink = g_probe_sink ^ x;
  return static_cast<double>(lanes) * one_s / all_s;
}

struct PhaseResult {
  double seconds = 0.0;
  // Fingerprint of the phase output, for the cross-thread-count check.
  Assignment assignment;
  ClusteredCosts costs;
};

// Runs every phase once at the pool's current size.  The scenario is
// rebuilt from the seed each call (Scenario is move-only); construction is
// deterministic, so both runs see the same workload.  When `grid_seconds`
// is non-null it receives the time of one Grid construction over the
// pipeline's workload, without the scenario, simulator, event sampling and
// baselines the pipeline also builds.  When `probes` is non-null it
// receives LaneProbe() right before and right after the timed batch phase.
std::vector<PhaseResult> RunPhases(int subs, std::size_t events, int dims,
                                   std::size_t max_cells, std::size_t K,
                                   std::uint64_t seed, double* grid_seconds,
                                   std::vector<double>* probes) {
  bench::Pipeline p(bench::MakeDimsScenario(dims, subs, seed), events, seed + 1);
  if (grid_seconds != nullptr) {
    StopwatchClock grid_watch;
    const Grid grid(p.scenario.workload, *p.scenario.pub);
    *grid_seconds = grid_watch.elapsed_seconds();
  }

  const std::vector<ClusterCell> cells = p.grid.top_cells(max_cells);
  std::vector<PhaseResult> out;

  {
    PhaseResult r;
    KMeansOptions opt;
    opt.variant = KMeansVariant::kForgy;
    StopwatchClock watch;
    r.assignment = KMeansCluster(cells, K, opt).assignment;
    r.seconds = watch.elapsed_seconds();
    out.push_back(std::move(r));
  }
  {
    PhaseResult r;
    StopwatchClock watch;
    r.assignment = PairwiseCluster(cells, K);
    r.seconds = watch.elapsed_seconds();
    out.push_back(std::move(r));
  }
  {
    PhaseResult r;
    const GridMatcher matcher(p.grid, out[0].assignment, static_cast<int>(K));
    if (probes != nullptr) probes->push_back(LaneProbe());
    StopwatchClock watch;
    r.costs = EvaluateMatcher(p.sim, p.events, MatcherFn(matcher));
    r.seconds = watch.elapsed_seconds();
    if (probes != nullptr) probes->push_back(LaneProbe());
    out.push_back(std::move(r));
  }
  return out;
}

int Run(int argc, char** argv) {
  const Flags flags(argc, argv);
  const int threads = ConfigureThreadsFromFlags(flags);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  const auto subs = static_cast<int>(flags.get_int("subs", 2000));
  const auto events = static_cast<std::size_t>(flags.get_int("events", 4000));
  const auto max_cells = static_cast<std::size_t>(flags.get_int("cells", 1200));
  const auto K = static_cast<std::size_t>(flags.get_int("groups", 100));
  const auto dims = static_cast<int>(flags.get_int("dims", 0));
  const bool verify = flags.get_bool("verify", true);
  const std::string tag = flags.get("report_tag", "");
  const double require_speedup = flags.get_double("require_batch_speedup", 0.0);

  double grid_s = 0.0;
  std::vector<double> probes;
  const std::vector<PhaseResult> timed =
      RunPhases(subs, events, dims, max_cells, K, seed, &grid_s,
                require_speedup > 0.0 ? &probes : nullptr);

  std::vector<PhaseResult> ref;
  if (verify && threads != 1) {
    ThreadPool::global().set_num_threads(1);
    ref = RunPhases(subs, events, dims, max_cells, K, seed, nullptr, nullptr);
    ThreadPool::global().set_num_threads(threads);
  }

  bench::BenchReport report(tag.empty() ? "parallel" : "parallel_" + tag);
  report.set_config("subs", subs);
  report.set_config("events", static_cast<long long>(events));
  report.set_config("cells", static_cast<long long>(max_cells));
  report.set_config("groups", static_cast<long long>(K));
  report.set_config("dims", dims);
  report.set_config("threads", threads);
  // Hardware context for the speedup columns: a consumer reading
  // forgy_speedup < 1 must be able to see how many hardware threads the
  // host reported (under the gate, the lane probe says what they ran).
  report.set_config("hardware_threads",
                    static_cast<int>(std::thread::hardware_concurrency()));

  const char* names[] = {"forgy k-means", "pairwise", "batch matching"};
  const char* keys[] = {"forgy", "pairwise", "batch_matching"};
  TextTable table({"phase", "seconds", "vs 1 thread"});
  report.add("grid_build_seconds", grid_s, "s");
  for (std::size_t i = 0; i < timed.size(); ++i) {
    table.row().cell(names[i]).cell(timed[i].seconds, 4).cell(
        ref.empty() ? 1.0 : ref[i].seconds / timed[i].seconds, 2);
    report.add(std::string(keys[i]) + "_seconds", timed[i].seconds, "s");
    if (!ref.empty())
      report.add(std::string(keys[i]) + "_speedup",
                 ref[i].seconds / timed[i].seconds, "x");
  }
  std::printf("parallel kernel scaling (subs=%d, events=%zu, cells=%zu, K=%zu, "
              "dims=%d, threads=%d):\n\n%s\ngrid build (serial): %.4f s\n",
              subs, events, max_cells, K, dims, threads,
              table.to_string().c_str(), grid_s);

  if (!ref.empty()) {
    bool identical = true;
    for (std::size_t i = 0; i < timed.size(); ++i) {
      if (timed[i].assignment != ref[i].assignment) identical = false;
      if (timed[i].costs.network != ref[i].costs.network ||
          timed[i].costs.applevel != ref[i].costs.applevel ||
          timed[i].costs.wasted_deliveries != ref[i].costs.wasted_deliveries)
        identical = false;
    }
    std::printf("\ndeterminism check vs --threads=1: %s\n",
                identical ? "bit-identical" : "MISMATCH (bug!)");
    if (!identical) return 1;
  }

  if (require_speedup > 0.0) {
    if (ref.empty()) {
      std::fprintf(stderr, "perf gate needs --verify=true and --threads>1\n");
      return 1;
    }
    const double speedup = ref[2].seconds / timed[2].seconds;
    // 77 is CTest's SKIP_RETURN_CODE.  The probe runs no code under test,
    // so a host that does run the lanes side by side still fails a
    // serialized batch phase.
    const bool skip =
        std::min(probes.front(), probes.back()) < kMinLaneThroughput;
    std::printf("\nlane probe: %d lanes ran %.2fx / %.2fx one lane's spin "
                "throughput before / after the timed phase (skip below "
                "%.2fx)\n",
                threads, probes.front(), probes.back(), kMinLaneThroughput);
    const char* verdict =
        skip ? "SKIPPED (the host is not running the lanes side by side)"
             : speedup >= require_speedup ? "PASS" : "FAIL";
    std::printf("perf gate: batch-matching speedup %.2fx (require >= %.2fx)"
                " -> %s\n",
                speedup, require_speedup, verdict);
    if (skip) return 77;
    if (speedup < require_speedup) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace pubsub

int main(int argc, char** argv) { return pubsub::Run(argc, argv); }
