// Reproduces Figure 11: solution quality as a function of clustering time.
// Each algorithm traces a (time, improvement) curve parameterized by the
// cell budget; the plot answers "given a time budget, which algorithm
// should I run?"
//
// Expected shape (paper): Forgy dominates the frontier (comparable or
// better quality than K-means, faster) — the basis of the paper's
// conclusion that Forgy should be preferred; K-means/Forgy quality can
// *decline* at the largest budgets (outliers), so the curves bend down.
//
// Flags: --events=N (default 300) --subs=N (default 1000) --seed=S
//        --groups=K (default 100)
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_report.h"
#include "bench_util.h"
#include "util/flags.h"
#include "util/thread_pool.h"
#include "util/table.h"

namespace pubsub {
namespace {

int Run(int argc, char** argv) {
  const Flags flags(argc, argv);
  ConfigureThreadsFromFlags(flags);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  const auto subs = static_cast<int>(flags.get_int("subs", 1000));
  const auto num_events = static_cast<std::size_t>(flags.get_int("events", 300));
  const auto K = static_cast<std::size_t>(flags.get_int("groups", 100));

  bench::Pipeline p(MakeStockScenario(subs, PublicationHotSpots::kOne, seed),
                    num_events, seed + 1);
  bench::PrintBaselines(p, "fig11 baselines");

  struct Sample {
    std::string algo;
    std::size_t cells;
    double seconds;
    double improvement;
  };
  std::vector<Sample> samples;
  for (const char* name : {"forgy", "kmeans", "approx-pairs", "mst"}) {
    for (const std::size_t budget : {500u, 1000u, 2000u, 4000u, 6000u, 9000u}) {
      const bench::EvalResult r = bench::EvaluateGridAlgorithm(
          p, GridAlgorithmByName(name), K, budget, seed + 2);
      samples.push_back({name, budget, r.cluster_seconds, r.improvement_net});
    }
  }

  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.seconds < b.seconds; });

  std::printf("\n--- quality vs time frontier (K=%zu; sorted by time) ---\n", K);
  TextTable table({"time_s", "algorithm", "cells", "improvement%"});
  for (const Sample& s : samples) {
    table.row()
        .cell(s.seconds, 3)
        .cell(s.algo)
        .cell(static_cast<long long>(s.cells))
        .cell(s.improvement, 1);
  }
  std::printf("%s", table.to_string().c_str());

  // Frontier summary: best improvement achievable within each time budget.
  std::printf("\n--- dominating algorithm per time budget ---\n");
  TextTable frontier({"time budget (s)", "best algorithm", "improvement%"});
  for (const double budget : {0.05, 0.2, 0.5, 1.0, 2.0, 5.0, 20.0}) {
    const Sample* best = nullptr;
    for (const Sample& s : samples)
      if (s.seconds <= budget && (best == nullptr || s.improvement > best->improvement))
        best = &s;
    if (best != nullptr)
      frontier.row().cell(budget, 2).cell(best->algo).cell(best->improvement, 1);
  }
  std::printf("%s", frontier.to_string().c_str());

  bench::BenchReport report("fig11");
  report.set_config("events", static_cast<long long>(num_events));
  report.set_config("subs", subs);
  report.set_config("groups", static_cast<long long>(K));
  for (const Sample& s : samples) {
    const std::string key = s.algo + "_cells" + std::to_string(s.cells);
    report.add(key + "_seconds", s.seconds, "s");
    report.add(key + "_improvement", s.improvement, "%");
  }
  return 0;
}

}  // namespace
}  // namespace pubsub

int main(int argc, char** argv) { return pubsub::Run(argc, argv); }
