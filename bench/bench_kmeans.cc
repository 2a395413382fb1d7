// Closure-accelerated k-means assignment vs the exact K-scan (ISSUE 10).
//
// The sweep runs a synthetic 1-D interval workload shaped like a large
// broker deployment: `--cells` positions on one axis, each covered by the
// subscribers whose contiguous interest window contains it, popularity-
// sorted exactly like Grid::top_cells and with position adjacency mapped
// through the sort as the closure neighborhood.  Both variants resume a
// perturbed warm assignment for a fixed number of passes, closure off and on.
// Each row reports the wall-clock speedup and the ratio of cell-to-group
// distances evaluated (KMeansResult::distance_evals): the count is the
// algorithmic win, exact on any host, while the wall-clock ratio also
// depends on what one distance costs there.
//
// Typical use:
//   bench_kmeans                         # default sweep -> BENCH_kmeans.json
//   bench_kmeans --cells_list=12000,50000 --groups_list=16,64
//
// Gate flags (KMeansPerfSmoke):
//   --require_eval_ratio=X   the exact run must evaluate >= X times the
//                            distances the closure run does, on the
//                            largest MacQueen config
//   --require_waste_ratio=R  closure final waste <= R x exact final waste
//   The gate also re-runs the largest config in oracle mode and fails
//   unless the oracle assignment is bit-identical to the exact run.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_report.h"
#include "core/kmeans.h"
#include "obs/clock.h"
#include "util/bitvector.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace pubsub {
namespace {

// One synthetic clustering instance: popularity-sorted cells, their
// closure neighborhoods, and a churned warm assignment.
struct SynthInstance {
  std::vector<BitVector> storage;            // membership, sorted order
  std::vector<double> probs;                 // prob, sorted order
  std::vector<ClusterCell> cells;            // views into the two above
  std::vector<std::vector<int>> neighbors;   // position adjacency, sorted ids
  Assignment warm;                           // block partition, 5% perturbed
};

SynthInstance MakeInstance(std::size_t positions, std::size_t subs,
                           std::size_t K, std::uint64_t seed) {
  Rng rng(seed);
  // Contiguous interest windows sized so each position is covered by ~100
  // subscribers: vectors stay narrow (cheap canonical rebuilds) while the
  // word count (subs/64) keeps the exact scan honest.
  std::vector<BitVector> membership(positions, BitVector(subs));
  const auto mean_width =
      static_cast<std::int64_t>(100 * positions / std::max<std::size_t>(subs, 1));
  for (std::size_t s = 0; s < subs; ++s) {
    const std::int64_t width =
        rng.uniform_int(std::max<std::int64_t>(mean_width / 2, 1),
                        mean_width + mean_width / 2);
    const auto start = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(positions) - 1));
    const std::size_t end = std::min(positions, start + static_cast<std::size_t>(width));
    for (std::size_t p = start; p < end; ++p) membership[p].set(s);
  }
  std::vector<double> prob(positions);
  for (std::size_t p = 0; p < positions; ++p) prob[p] = rng.uniform(0.01, 1.0);

  // Popularity sort (prob x |members|, decreasing), exactly the order
  // Grid::top_cells hands to KMeansCluster; position adjacency is mapped
  // through it the way Grid::cluster_neighbors maps lattice adjacency.
  std::vector<std::size_t> order(positions);
  for (std::size_t p = 0; p < positions; ++p) order[p] = p;
  std::vector<double> popularity(positions);
  for (std::size_t p = 0; p < positions; ++p)
    popularity[p] = prob[p] * static_cast<double>(membership[p].count());
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return popularity[a] > popularity[b];
  });
  std::vector<int> rank(positions);
  for (std::size_t r = 0; r < positions; ++r)
    rank[order[r]] = static_cast<int>(r);

  SynthInstance inst;
  inst.storage.reserve(positions);
  inst.probs.reserve(positions);
  for (std::size_t r = 0; r < positions; ++r) {
    inst.storage.push_back(std::move(membership[order[r]]));
    inst.probs.push_back(prob[order[r]]);
  }
  inst.cells.reserve(positions);
  for (std::size_t r = 0; r < positions; ++r)
    inst.cells.push_back(ClusterCell{&inst.storage[r], inst.probs[r]});
  inst.neighbors.resize(positions);
  for (std::size_t r = 0; r < positions; ++r) {
    const std::size_t p = order[r];
    if (p > 0) inst.neighbors[r].push_back(rank[p - 1]);
    if (p + 1 < positions) inst.neighbors[r].push_back(rank[p + 1]);
    std::sort(inst.neighbors[r].begin(), inst.neighbors[r].end());
  }

  // Warm start: the natural 1-D block partition (group = position band),
  // with 5% of the cells re-dealt to random groups — the churned state a
  // warm broker refresh starts from.
  inst.warm.assign(positions, -1);
  for (std::size_t r = 0; r < positions; ++r) {
    const std::size_t p = order[r];
    inst.warm[r] = static_cast<int>(p * K / positions);
  }
  const std::size_t churned = positions / 20;
  for (std::size_t c = 0; c < churned; ++c) {
    const auto r = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(positions) - 1));
    inst.warm[r] =
        static_cast<int>(rng.uniform_int(0, static_cast<std::int64_t>(K) - 1));
  }
  return inst;
}

std::vector<std::size_t> ParseList(const std::string& csv) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string tok =
        csv.substr(pos, comma == std::string::npos ? csv.size() - pos
                                                   : comma - pos);
    if (!tok.empty()) out.push_back(static_cast<std::size_t>(std::stoull(tok)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

struct RunOutcome {
  double seconds = 0.0;
  double waste = 0.0;
  KMeansResult result;
};

RunOutcome RunOnce(const SynthInstance& inst, std::size_t K,
                   KMeansVariant variant, bool closure, bool oracle,
                   std::size_t passes) {
  KMeansOptions opt;
  opt.variant = variant;
  opt.warm_start = &inst.warm;
  opt.max_iterations = passes;
  opt.closure = closure;
  opt.neighbors = closure ? &inst.neighbors : nullptr;
  opt.closure_oracle = oracle;
  RunOutcome out;
  StopwatchClock watch;
  out.result = KMeansCluster(inst.cells, K, opt);
  out.seconds = watch.elapsed_seconds();
  out.waste = TotalExpectedWaste(inst.cells, out.result.assignment,
                                 static_cast<int>(K));
  return out;
}

int Run(int argc, char** argv) {
  const Flags flags(argc, argv);
  ConfigureThreadsFromFlags(flags);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  const auto subs = static_cast<std::size_t>(flags.get_int("subs", 8192));
  const auto passes = static_cast<std::size_t>(flags.get_int("passes", 6));
  const std::vector<std::size_t> cells_list =
      ParseList(flags.get("cells_list", "12000,50000"));
  const std::vector<std::size_t> groups_list =
      ParseList(flags.get("groups_list", "64"));
  const std::string variants_csv = flags.get("variants", "macqueen,forgy");
  std::vector<KMeansVariant> variants;
  if (variants_csv.find("macqueen") != std::string::npos)
    variants.push_back(KMeansVariant::kMacQueen);
  if (variants_csv.find("forgy") != std::string::npos)
    variants.push_back(KMeansVariant::kForgy);
  const double require_eval_ratio = flags.get_double("require_eval_ratio", 0.0);
  const double require_waste_ratio = flags.get_double("require_waste_ratio", 0.0);

  bench::BenchReport report("kmeans");
  report.set_config("subs", static_cast<long long>(subs));
  report.set_config("passes", static_cast<long long>(passes));
  report.set_config("seed", static_cast<long long>(seed));

  TextTable table({"cells", "K", "variant", "exact s", "closure s", "speedup",
                   "eval ratio", "waste ratio", "hits", "fallbacks"});
  double gate_speedup = -1.0, gate_eval_ratio = -1.0, gate_waste_ratio = -1.0;
  const SynthInstance* gate_inst = nullptr;
  std::size_t gate_cells = 0, gate_K = 0;
  Assignment gate_exact_assignment;

  std::vector<SynthInstance> instances;  // keep warm starts alive for the gate
  instances.reserve(cells_list.size());
  for (const std::size_t cells_n : cells_list) {
    instances.push_back(MakeInstance(cells_n, subs, groups_list.back(), seed));
    const SynthInstance& inst = instances.back();
    for (const std::size_t K : groups_list) {
      for (const KMeansVariant variant : variants) {
        const char* vname =
            variant == KMeansVariant::kMacQueen ? "macqueen" : "forgy";
        const RunOutcome exact =
            RunOnce(inst, K, variant, /*closure=*/false, /*oracle=*/false, passes);
        const RunOutcome clos =
            RunOnce(inst, K, variant, /*closure=*/true, /*oracle=*/false, passes);
        const double speedup =
            clos.seconds > 0.0 ? exact.seconds / clos.seconds : 0.0;
        const double eval_ratio =
            clos.result.distance_evals > 0
                ? static_cast<double>(exact.result.distance_evals) /
                      static_cast<double>(clos.result.distance_evals)
                : 0.0;
        const double waste_ratio =
            exact.waste > 0.0 ? clos.waste / exact.waste : 1.0;
        table.row()
            .cell(cells_n)
            .cell(K)
            .cell(vname)
            .cell(exact.seconds, 4)
            .cell(clos.seconds, 4)
            .cell(speedup, 2)
            .cell(eval_ratio, 2)
            .cell(waste_ratio, 4)
            .cell(static_cast<double>(clos.result.closure_hits), 0)
            .cell(static_cast<double>(clos.result.closure_fallbacks), 0);
        const std::string key = std::string(vname) + "_" +
                                std::to_string(cells_n) + "x" +
                                std::to_string(K);
        report.add(key + "_exact_seconds", exact.seconds, "s");
        report.add(key + "_closure_seconds", clos.seconds, "s");
        report.add(key + "_speedup", speedup, "x");
        report.add(key + "_exact_distance_evals",
                   static_cast<double>(exact.result.distance_evals), "");
        report.add(key + "_closure_distance_evals",
                   static_cast<double>(clos.result.distance_evals), "");
        report.add(key + "_eval_ratio", eval_ratio, "x");
        report.add(key + "_waste_ratio", waste_ratio, "");
        report.add(key + "_closure_hits",
                   static_cast<double>(clos.result.closure_hits), "");
        report.add(key + "_closure_fallbacks",
                   static_cast<double>(clos.result.closure_fallbacks), "");
        report.add(key + "_passes",
                   static_cast<double>(clos.result.iterations), "");
        // The gate reads the largest MacQueen configuration.
        if (variant == KMeansVariant::kMacQueen &&
            cells_n == cells_list.back() && K == groups_list.back()) {
          gate_speedup = speedup;
          gate_eval_ratio = eval_ratio;
          gate_waste_ratio = waste_ratio;
          gate_inst = &inst;
          gate_cells = cells_n;
          gate_K = K;
          gate_exact_assignment = exact.result.assignment;
        }
      }
    }
  }

  std::printf("closure-accelerated k-means (subs=%zu, passes=%zu):\n\n%s",
              subs, passes, table.to_string().c_str());

  if (require_eval_ratio > 0.0 || require_waste_ratio > 0.0) {
    if (gate_inst == nullptr) {
      std::fprintf(stderr, "perf gate needs a macqueen row in the sweep\n");
      return 1;
    }
    // Oracle re-run: with the exact scan deciding every cell, the closure
    // machinery must reproduce the sweep's exact assignment bit for bit.
    const RunOutcome oracle =
        RunOnce(*gate_inst, gate_K, KMeansVariant::kMacQueen,
                /*closure=*/true, /*oracle=*/true, passes);
    const bool oracle_ok = oracle.result.assignment == gate_exact_assignment;
    report.add("gate_speedup", gate_speedup, "x");
    report.add("gate_eval_ratio", gate_eval_ratio, "x");
    report.add("gate_waste_ratio", gate_waste_ratio, "");
    report.add("gate_oracle_identical", oracle_ok ? 1.0 : 0.0, "");
    report.add("gate_oracle_mismatches",
               static_cast<double>(oracle.result.oracle_mismatches), "");
    std::printf(
        "\nperf gate (cells=%zu, K=%zu, macqueen): distance evals %.2fx fewer "
        "(>= %.2fx; wall clock %.2fx), waste ratio %.4f (<= %.4f), oracle %s "
        "(%zu overruled)\n",
        gate_cells, gate_K, gate_eval_ratio, require_eval_ratio, gate_speedup,
        gate_waste_ratio, require_waste_ratio > 0.0 ? require_waste_ratio : 1.0,
        oracle_ok ? "bit-identical" : "MISMATCH (bug!)",
        oracle.result.oracle_mismatches);
    if (!oracle_ok) return 1;
    if (require_eval_ratio > 0.0 && gate_eval_ratio < require_eval_ratio)
      return 1;
    if (require_waste_ratio > 0.0 && gate_waste_ratio > require_waste_ratio)
      return 1;
    std::printf("perf gate: PASS\n");
  }
  return 0;
}

}  // namespace
}  // namespace pubsub

int main(int argc, char** argv) { return pubsub::Run(argc, argv); }
