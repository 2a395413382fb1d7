// Subscription-churn scaling of the covering table + incremental slab
// index (ISSUE 6 tentpole): update latency must be a function of *distinct
// interest*, not of the subscriber population.
//
// The workload models the aggregation regime of content-based pub/sub at
// scale: N subscribers draw their interest rectangles from a pool of D
// distinct rectangles (N >> D).  The covering table dedups equal
// rectangles and parks contained ones as covered children, so the backing
// slab index holds at most D entries regardless of N — and a subscription
// update is a refcount move that usually never touches the index at all.
//
// Two measurements:
//   1. A --subs_list sweep (default 10k / 100k / 1M) timing random updates
//      at each population.  The per-op latency column should be flat.
//   2. At --subs, the same update stream applied two ways: the table's
//      incremental slab maintenance vs a full from-scratch index rebuild
//      after every op (what shipping without incremental maintenance
//      would cost).  --require_incremental_speedup=X gates the ratio (CTest
//      ChurnPerfSmoke; exit 77 = skip when the rebuild baseline is too
//      fast to time reliably, e.g. a tiny --distinct).
//
// Typical use:
//   bench_churn                        # full sweep, writes BENCH_churn.json
//   bench_churn --subs=100000 --updates=5000 --rebuild_ops=50
//               --require_incremental_speedup=10     # the CI gate
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "bench_report.h"
#include "core/covering.h"
#include "geometry/rect.h"
#include "index/slab_index.h"
#include "obs/clock.h"
#include "util/flags.h"

namespace pubsub {
namespace {

// Distinct-interest pool: random axis-aligned rects over [0, 100]^dims
// with mixed widths, so dedup, containment and promotion all engage.
std::vector<Rect> MakePool(std::size_t distinct, int dims,
                           std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> origin(0.0, 100.0);
  std::uniform_real_distribution<double> width(0.5, 25.0);
  std::vector<Rect> pool;
  pool.reserve(distinct);
  for (std::size_t i = 0; i < distinct; ++i) {
    std::vector<Interval> ivals;
    for (int d = 0; d < dims; ++d) {
      const double lo = origin(rng);
      ivals.emplace_back(lo, lo + width(rng));
    }
    pool.emplace_back(std::move(ivals));
  }
  return pool;
}

void SubscribeAll(CoveringTable& table, const std::vector<Rect>& pool,
                  std::size_t subs) {
  for (std::size_t s = 0; s < subs; ++s)
    table.subscribe(static_cast<SubscriberId>(s), pool[s % pool.size()]);
}

struct SweepRow {
  std::size_t subs = 0;
  std::size_t entries = 0;   // distinct resident rectangles (K)
  std::size_t indexed = 0;   // slab-resident maximal rectangles
  double build_seconds = 0.0;
  double update_ns = 0.0;    // mean per update through table + slab
};

SweepRow RunPopulation(const std::vector<Rect>& pool, std::size_t subs,
                       std::size_t updates, std::uint64_t seed) {
  CoveringTable table;
  StopwatchClock build_watch;
  SubscribeAll(table, pool, subs);

  SweepRow row;
  row.subs = subs;
  row.build_seconds = build_watch.elapsed_seconds();

  std::mt19937_64 rng(seed);
  StopwatchClock watch;
  for (std::size_t u = 0; u < updates; ++u) {
    const SubscriberId s = static_cast<SubscriberId>(rng() % subs);
    table.update(s, pool[rng() % pool.size()]);
  }
  row.update_ns = watch.elapsed_seconds() * 1e9 / static_cast<double>(updates);
  row.entries = table.entry_count();
  row.indexed = table.indexed_count();
  return row;
}

// Per-op cost of the from-scratch alternative: every update is followed by
// a bulk build of a fresh slab index over the table's indexed set, read
// from the resident ids and rectangles of the table's own index.
double RebuildBaselineNs(const std::vector<Rect>& pool, std::size_t subs,
                         std::size_t ops, std::uint64_t seed) {
  CoveringTable table;
  SubscribeAll(table, pool, subs);
  std::mt19937_64 rng(seed);
  std::vector<std::pair<Rect, int>> items;
  SlabIndex rebuilt;
  StopwatchClock watch;
  for (std::size_t u = 0; u < ops; ++u) {
    const SubscriberId s = static_cast<SubscriberId>(rng() % subs);
    table.update(s, pool[rng() % pool.size()]);
    const SlabIndex& index = table.index();
    items.clear();
    for (std::size_t id = 0; id < index.universe(); ++id)
      if (index.contains(static_cast<int>(id)))
        items.emplace_back(index.rect_of(static_cast<int>(id)),
                           static_cast<int>(id));
    rebuilt = SlabIndex(items, index.universe());
  }
  return watch.elapsed_seconds() * 1e9 / static_cast<double>(ops);
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

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  flags.require_known({"subs", "subs_list", "distinct", "dims", "updates",
                       "rebuild_ops", "seed", "require_incremental_speedup"});
  const auto subs = static_cast<std::size_t>(flags.get_int("subs", 100000));
  const std::vector<std::size_t> sweep =
      ParseList(flags.get("subs_list", "10000,100000,1000000"));
  const auto distinct =
      static_cast<std::size_t>(flags.get_int("distinct", 4096));
  const int dims = static_cast<int>(flags.get_int("dims", 2));
  const auto updates =
      static_cast<std::size_t>(flags.get_int("updates", 20000));
  const auto rebuild_ops =
      static_cast<std::size_t>(flags.get_int("rebuild_ops", 200));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double require_speedup =
      flags.get_double("require_incremental_speedup", 0.0);

  const std::vector<Rect> pool = MakePool(distinct, dims, seed);

  bench::BenchReport report("churn");
  report.set_config("distinct", static_cast<long long>(distinct));
  report.set_config("dims", static_cast<long long>(dims));
  report.set_config("updates", static_cast<long long>(updates));
  report.set_config("seed", static_cast<long long>(seed));

  std::printf("# churn scaling: %zu distinct rects, %d dims, %zu updates\n",
              distinct, dims, updates);
  std::printf("%12s %10s %10s %12s %14s\n", "subscribers", "entries",
              "indexed", "build (s)", "update (ns)");
  double first_ns = 0.0, last_ns = 0.0;
  for (const std::size_t n : sweep) {
    const SweepRow row = RunPopulation(pool, n, updates, seed + 17);
    std::printf("%12zu %10zu %10zu %12.3f %14.1f\n", row.subs, row.entries,
                row.indexed, row.build_seconds, row.update_ns);
    const std::string tag = std::to_string(row.subs);
    report.add("update_ns_subs_" + tag, row.update_ns, "ns");
    report.add("entries_subs_" + tag, static_cast<double>(row.entries));
    report.add("indexed_subs_" + tag, static_cast<double>(row.indexed));
    report.add("build_seconds_subs_" + tag, row.build_seconds, "s");
    if (first_ns == 0.0) first_ns = row.update_ns;
    last_ns = row.update_ns;
  }
  if (first_ns > 0.0) {
    // The headline number: how much a 100x population costs per update.
    report.add("update_latency_growth", last_ns / first_ns, "x");
    std::printf("# update latency growth across the sweep: %.2fx\n",
                last_ns / first_ns);
  }

  // Incremental maintenance vs full rebuild at --subs.
  const SweepRow inc = RunPopulation(pool, subs, updates, seed + 29);
  const double rebuild_ns = RebuildBaselineNs(pool, subs, rebuild_ops,
                                              seed + 29);
  const double speedup = rebuild_ns / inc.update_ns;
  std::printf("# at %zu subs: incremental %.1f ns/update, "
              "full rebuild %.1f ns/update (%.1fx)\n",
              subs, inc.update_ns, rebuild_ns, speedup);
  report.set_config("subs", static_cast<long long>(subs));
  report.add("incremental_update_ns", inc.update_ns, "ns");
  report.add("full_rebuild_update_ns", rebuild_ns, "ns");
  report.add("incremental_speedup", speedup, "x");

  if (require_speedup > 0.0) {
    // Below ~2us per rebuild the baseline is inside timer noise and the
    // ratio is meaningless: skip rather than flake.
    if (rebuild_ns < 2000.0) {
      std::fprintf(stderr,
                   "SKIP: rebuild baseline %.0f ns/op is too fast to gate "
                   "reliably (reduce --distinct?)\n",
                   rebuild_ns);
      return 77;
    }
    if (speedup < require_speedup) {
      std::fprintf(stderr,
                   "FAIL: incremental speedup %.2fx < required %.2fx\n",
                   speedup, require_speedup);
      return 1;
    }
    std::printf("# gate ok: %.1fx >= %.1fx\n", speedup, require_speedup);
  }
  return 0;
}

}  // namespace
}  // namespace pubsub

int main(int argc, char** argv) { return pubsub::Main(argc, argv); }
