#include "core/kmeans.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "cluster_test_util.h"
#include "util/thread_pool.h"

namespace pubsub {
namespace {

using testutil::CellSet;
using testutil::MatchesTruth;
using testutil::RandomCells;
using testutil::SeparableCells;
using testutil::ValidPartition;

class KMeansVariantTest : public ::testing::TestWithParam<KMeansVariant> {
 protected:
  KMeansOptions Opt() const {
    KMeansOptions o;
    o.variant = GetParam();
    return o;
  }
};

TEST_P(KMeansVariantTest, RecoversSeparableBlocks) {
  Rng rng(1);
  CellSet set = SeparableCells(3, 12, 15, rng);
  // Popularity ordering is a precondition of the seeding step.
  std::vector<std::size_t> order(set.cells.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return set.cells[a].popularity() > set.cells[b].popularity();
  });
  std::vector<ClusterCell> cells;
  std::vector<int> truth;
  for (const std::size_t i : order) {
    cells.push_back(set.cells[i]);
    truth.push_back(set.truth[i]);
  }

  const KMeansResult r = KMeansCluster(cells, 3, Opt());
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(ValidPartition(r.assignment, 3));
  EXPECT_TRUE(MatchesTruth(truth, r.assignment));
  // Separated blocks have zero expected waste... within a block every pair
  // of cells shares the group but may differ, so waste is merely finite;
  // cross-block grouping would add strictly positive inter-block waste.
  const double waste = TotalExpectedWaste(cells, r.assignment, 3);
  EXPECT_GE(waste, 0.0);
}

TEST_P(KMeansVariantTest, ProducesValidPartitionOnRandomData) {
  Rng rng(2);
  const CellSet set = RandomCells(120, 40, rng);
  for (const std::size_t k : {1u, 2u, 7u, 40u}) {
    const KMeansResult r = KMeansCluster(set.cells, k, Opt());
    EXPECT_TRUE(ValidPartition(r.assignment, k)) << "K=" << k;
  }
}

TEST_P(KMeansVariantTest, KClampedToCellCount) {
  Rng rng(3);
  const CellSet set = RandomCells(5, 10, rng);
  const KMeansResult r = KMeansCluster(set.cells, 50, Opt());
  EXPECT_TRUE(ValidPartition(r.assignment, 5));
}

TEST_P(KMeansVariantTest, DeterministicAcrossRuns) {
  Rng rng(4);
  const CellSet set = RandomCells(80, 30, rng);
  const KMeansResult a = KMeansCluster(set.cells, 8, Opt());
  const KMeansResult b = KMeansCluster(set.cells, 8, Opt());
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST_P(KMeansVariantTest, ImprovesOnInitialPartition) {
  Rng rng(5);
  const CellSet set = RandomCells(150, 50, rng);
  KMeansOptions no_iter = Opt();
  no_iter.max_iterations = 0;
  KMeansOptions full = Opt();
  const double before =
      TotalExpectedWaste(set.cells, KMeansCluster(set.cells, 10, no_iter).assignment, 10);
  const double after =
      TotalExpectedWaste(set.cells, KMeansCluster(set.cells, 10, full).assignment, 10);
  EXPECT_LE(after, before + 1e-9);
}

TEST_P(KMeansVariantTest, IterationCapRespected) {
  Rng rng(6);
  const CellSet set = RandomCells(100, 30, rng);
  KMeansOptions opt = Opt();
  opt.max_iterations = 2;
  const KMeansResult r = KMeansCluster(set.cells, 5, opt);
  EXPECT_LE(r.iterations, 2u);
  EXPECT_TRUE(ValidPartition(r.assignment, 5));
}

TEST_P(KMeansVariantTest, EmptyAndSingletonInputs) {
  const KMeansResult empty = KMeansCluster({}, 3, Opt());
  EXPECT_TRUE(empty.assignment.empty());

  BitVector v(4);
  v.set(0);
  const std::vector<ClusterCell> one = {{&v, 0.5}};
  const KMeansResult r = KMeansCluster(one, 3, Opt());
  EXPECT_EQ(r.assignment, Assignment{0});
}

TEST_P(KMeansVariantTest, RejectsZeroK) {
  BitVector v(4);
  v.set(1);
  const std::vector<ClusterCell> one = {{&v, 0.5}};
  EXPECT_THROW(KMeansCluster(one, 0, Opt()), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(Variants, KMeansVariantTest,
                         ::testing::Values(KMeansVariant::kMacQueen,
                                           KMeansVariant::kForgy),
                         [](const auto& info) {
                           return info.param == KMeansVariant::kMacQueen
                                      ? "MacQueen"
                                      : "Forgy";
                         });

TEST(KMeans, WarmStartConvergesFasterOnPerturbedInput) {
  Rng rng(8);
  const CellSet set = RandomCells(200, 60, rng);
  const KMeansResult cold = KMeansCluster(set.cells, 12, {});
  ASSERT_TRUE(cold.converged);

  // Re-cluster the same cells warm-started from the converged assignment:
  // it must converge in a few re-balancing passes (the returned assignment
  // may be a best-of-run intermediate, not a pass fixed point) and must
  // not lose quality.
  KMeansOptions warm;
  warm.warm_start = &cold.assignment;
  const KMeansResult again = KMeansCluster(set.cells, 12, warm);
  EXPECT_TRUE(again.converged);
  EXPECT_LE(again.iterations, cold.iterations);
  EXPECT_LE(TotalExpectedWaste(set.cells, again.assignment, 12),
            TotalExpectedWaste(set.cells, cold.assignment, 12) + 1e-9);
}

TEST(KMeans, WarmStartPlacesUnlabeledCellsByDistance) {
  Rng rng(9);
  const CellSet set = SeparableCells(3, 8, 6, rng);
  // Label only the three seeds; everything else is -1.
  Assignment seed(set.cells.size(), -1);
  seed[0] = 0;
  // Find one cell of each block to pin (cells are in block order).
  seed[0] = 0;
  seed[6] = 1;
  seed[12] = 2;
  KMeansOptions warm;
  warm.warm_start = &seed;
  const KMeansResult r = KMeansCluster(set.cells, 3, warm);
  EXPECT_TRUE(ValidPartition(r.assignment, 3));
  EXPECT_TRUE(MatchesTruth(set.truth, r.assignment));
}

TEST(KMeans, WarmStartRejectsSizeMismatch) {
  Rng rng(10);
  const CellSet set = RandomCells(10, 8, rng);
  Assignment bad(5, 0);
  KMeansOptions warm;
  warm.warm_start = &bad;
  EXPECT_THROW(KMeansCluster(set.cells, 3, warm), std::invalid_argument);
}

// Index-chain adjacency: cell i neighbors i-1 and i+1.  Synthetic stand-in
// for Grid::cluster_neighbors — the k-means closure machinery only sees a
// per-cell index list either way.
std::vector<std::vector<int>> ChainNeighbors(std::size_t n) {
  std::vector<std::vector<int>> nb(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) nb[i].push_back(static_cast<int>(i - 1));
    if (i + 1 < n) nb[i].push_back(static_cast<int>(i + 1));
  }
  return nb;
}

class KMeansClosureTest : public ::testing::TestWithParam<KMeansVariant> {
 protected:
  KMeansOptions Opt() const {
    KMeansOptions o;
    o.variant = GetParam();
    return o;
  }
};

// Oracle mode runs the exact scan on every decision and uses its verdict,
// so the output must be bit-identical to the closure-off path — on fuzzed
// inputs across sizes and K.  Mismatch counting rides along for free.
TEST_P(KMeansClosureTest, OracleBitIdenticalToExactPath) {
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    Rng rng(seed);
    const std::size_t count = 40 + seed * 30;
    const CellSet set = RandomCells(count, 25 + seed * 5, rng);
    const auto neighbors = ChainNeighbors(set.cells.size());
    for (const std::size_t k : {3u, 9u, 17u}) {
      const KMeansResult exact = KMeansCluster(set.cells, k, Opt());
      KMeansOptions oracle = Opt();
      oracle.closure = true;
      oracle.neighbors = &neighbors;
      oracle.closure_oracle = true;
      const KMeansResult r = KMeansCluster(set.cells, k, oracle);
      ASSERT_EQ(r.assignment, exact.assignment)
          << "seed=" << seed << " K=" << k;
      EXPECT_EQ(r.iterations, exact.iterations);
      EXPECT_EQ(r.converged, exact.converged);
      EXPECT_GT(r.closure_hits, 0u);
    }
  }
}

// Without the oracle the closure is allowed to land on a different (local)
// fixpoint, but every applied move passes an improvement check, so the
// final waste can never exceed the initial partition's.
TEST_P(KMeansClosureTest, ClosureNeverWorseThanInitialPartition) {
  Rng rng(24);
  const CellSet set = RandomCells(300, 40, rng);
  const auto neighbors = ChainNeighbors(set.cells.size());
  for (const std::size_t k : {5u, 16u}) {
    KMeansOptions opt = Opt();
    opt.closure = true;
    opt.neighbors = &neighbors;
    KMeansOptions no_iter = opt;  // same closure-seeded initial partition
    no_iter.max_iterations = 0;
    const double before =
        TotalExpectedWaste(set.cells, KMeansCluster(set.cells, k, no_iter).assignment,
                           static_cast<int>(k));
    const KMeansResult r = KMeansCluster(set.cells, k, opt);
    EXPECT_TRUE(ValidPartition(r.assignment, k));
    EXPECT_GT(r.closure_hits, 0u);
    EXPECT_LE(TotalExpectedWaste(set.cells, r.assignment, static_cast<int>(k)),
              before + 1e-9);
  }
}

// distance_evals counts the work closures save: the exact path pays K per
// decision (cell_visits counts decisions), a closure run pays less, and
// oracle mode pays the closure's evaluations on top of the exact scan.
TEST_P(KMeansClosureTest, DistanceEvalsCountExactAndClosureWork) {
  Rng rng(25);
  const CellSet set = RandomCells(300, 40, rng);
  const auto neighbors = ChainNeighbors(set.cells.size());
  const std::size_t k = 16;
  const KMeansResult exact = KMeansCluster(set.cells, k, Opt());
  EXPECT_EQ(exact.distance_evals, exact.cell_visits * k);

  KMeansOptions opt = Opt();
  opt.closure = true;
  opt.neighbors = &neighbors;
  const KMeansResult closure = KMeansCluster(set.cells, k, opt);
  EXPECT_GT(closure.distance_evals, 0u);
  EXPECT_LT(closure.distance_evals, closure.cell_visits * k);

  opt.closure_oracle = true;
  const KMeansResult oracle = KMeansCluster(set.cells, k, opt);
  EXPECT_EQ(oracle.assignment, exact.assignment);
  EXPECT_GT(oracle.distance_evals, oracle.cell_visits * k);
}

INSTANTIATE_TEST_SUITE_P(Variants, KMeansClosureTest,
                         ::testing::Values(KMeansVariant::kMacQueen,
                                           KMeansVariant::kForgy),
                         [](const auto& info) {
                           return info.param == KMeansVariant::kMacQueen
                                      ? "MacQueen"
                                      : "Forgy";
                         });

// The Forgy closure pass is pool-parallel; proposals are pure over the
// frozen pass-start state, so assignment AND counters must be bit-identical
// at any thread count.  400 cells clears the min_parallel threshold.
TEST(KMeansClosure, ForgyThreadCountInvariant) {
  Rng rng(27);
  const CellSet set = RandomCells(400, 50, rng);
  const auto neighbors = ChainNeighbors(set.cells.size());
  KMeansOptions opt;
  opt.variant = KMeansVariant::kForgy;
  opt.closure = true;
  opt.neighbors = &neighbors;

  ThreadPool::global().set_num_threads(1);
  const KMeansResult serial = KMeansCluster(set.cells, 16, opt);
  KMeansResult parallel;
  for (const int threads : {2, 4, 7}) {
    ThreadPool::global().set_num_threads(threads);
    parallel = KMeansCluster(set.cells, 16, opt);
    EXPECT_EQ(parallel.assignment, serial.assignment) << threads;
    EXPECT_EQ(parallel.iterations, serial.iterations) << threads;
    EXPECT_EQ(parallel.closure_hits, serial.closure_hits) << threads;
    EXPECT_EQ(parallel.closure_fallbacks, serial.closure_fallbacks) << threads;
  }
  ThreadPool::global().set_num_threads(1);
}

// Reference implementation of the pre-optimization MacQueen path: remove
// the cell, scan every group on the mutated state, re-add to the winner —
// even when the cell stays put — plus the patience/best-of stopping rule
// that surrounded the pass loop.  The shipped loop evaluates "stay" via
// distance_to_excluding and only mutates on an actual move; this pin
// proves the two are bit-identical, not merely close.
Assignment LegacyMacQueen(const std::vector<ClusterCell>& cells, std::size_t K,
                          std::size_t max_iterations = 100) {
  K = std::min(K, cells.size());
  const std::size_t ns = cells[0].members->size();
  Assignment assignment(cells.size(), -1);
  std::vector<GroupState> groups(K, GroupState(ns));
  const auto closest = [&](const ClusterCell& cell) {
    std::size_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t g = 0; g < K; ++g) {
      const double d = groups[g].distance_to(cell);
      if (d < best_d) {
        best_d = d;
        best = g;
      }
    }
    return best;
  };
  for (std::size_t g = 0; g < K; ++g) {
    groups[g].add(cells[g]);
    assignment[g] = static_cast<int>(g);
  }
  for (std::size_t i = K; i < cells.size(); ++i) {
    const std::size_t g = closest(cells[i]);
    groups[g].add(cells[i]);
    assignment[i] = static_cast<int>(g);
  }
  double best_waste = TotalExpectedWaste(cells, assignment, static_cast<int>(K));
  Assignment best_assignment = assignment;
  std::size_t stale_passes = 0;
  constexpr std::size_t kPatience = 3;
  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    bool moved = false;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto cur = static_cast<std::size_t>(assignment[i]);
      if (groups[cur].size() == 1) continue;
      groups[cur].remove(cells[i]);
      const std::size_t next = closest(cells[i]);
      groups[next].add(cells[i]);
      if (next != cur) {
        assignment[i] = static_cast<int>(next);
        moved = true;
      }
    }
    if (!moved) break;
    const double waste =
        TotalExpectedWaste(cells, assignment, static_cast<int>(K));
    if (waste < best_waste) {
      best_waste = waste;
      best_assignment = assignment;
      stale_passes = 0;
    } else if (++stale_passes >= kPatience) {
      break;
    }
  }
  if (TotalExpectedWaste(cells, assignment, static_cast<int>(K)) > best_waste)
    assignment = std::move(best_assignment);
  return assignment;
}

TEST(KMeans, MacQueenBitIdenticalToLegacyDance) {
  for (const std::uint64_t seed : {31u, 32u, 33u, 34u}) {
    Rng rng(seed);
    const CellSet set = RandomCells(60 + seed * 25, 20 + seed * 6, rng);
    for (const std::size_t k : {2u, 7u, 13u}) {
      const KMeansResult r = KMeansCluster(set.cells, k, {});
      EXPECT_EQ(r.assignment, LegacyMacQueen(set.cells, k))
          << "seed=" << seed << " K=" << k;
    }
  }
}

TEST(KMeans, GroupsNeverEmptied) {
  // With K = number of cells every cell is its own seed and none may move.
  Rng rng(7);
  const CellSet set = RandomCells(12, 10, rng);
  const KMeansResult r = KMeansCluster(set.cells, 12, {});
  Assignment expect(12);
  for (int i = 0; i < 12; ++i) expect[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(r.assignment, expect);
}

}  // namespace
}  // namespace pubsub
