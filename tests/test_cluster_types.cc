#include <gtest/gtest.h>

#include <vector>

#include "core/cluster_types.h"
#include "util/rng.h"

namespace pubsub {
namespace {

BitVector Bits(std::size_t n, std::initializer_list<std::size_t> set) {
  BitVector v(n);
  for (std::size_t i : set) v.set(i);
  return v;
}

TEST(ExpectedWaste, ZeroForIdenticalVectors) {
  const BitVector a = Bits(10, {1, 2, 3});
  EXPECT_EQ(ExpectedWaste(a, 0.5, a, 0.9), 0.0);
}

TEST(ExpectedWaste, WeightsAsymmetricDifferences) {
  // d(a,b) = p_a·|a\b| + p_b·|b\a|
  const BitVector a = Bits(10, {1, 2, 3});
  const BitVector b = Bits(10, {3, 4});
  // |a\b| = 2 (bits 1,2); |b\a| = 1 (bit 4).
  EXPECT_DOUBLE_EQ(ExpectedWaste(a, 0.5, b, 0.25), 0.5 * 2 + 0.25 * 1);
  // Swapping arguments swaps the roles but the total is symmetric.
  EXPECT_DOUBLE_EQ(ExpectedWaste(b, 0.25, a, 0.5), 0.5 * 2 + 0.25 * 1);
}

TEST(ExpectedWaste, ZeroProbabilityCostsNothing) {
  const BitVector a = Bits(8, {0});
  const BitVector b = Bits(8, {7});
  EXPECT_EQ(ExpectedWaste(a, 0.0, b, 0.0), 0.0);
}

TEST(GroupState, AddRemoveRoundTrips) {
  const BitVector a = Bits(6, {0, 1});
  const BitVector b = Bits(6, {1, 2});
  GroupState g(6);
  g.add(ClusterCell{&a, 0.5});
  g.add(ClusterCell{&b, 0.25});
  EXPECT_EQ(g.size(), 2u);
  EXPECT_DOUBLE_EQ(g.prob(), 0.75);
  EXPECT_EQ(g.vec(), Bits(6, {0, 1, 2}));

  g.remove(ClusterCell{&a, 0.5});
  EXPECT_EQ(g.size(), 1u);
  EXPECT_DOUBLE_EQ(g.prob(), 0.25);
  // Bit 1 survives (still counted by b); bit 0 is gone.
  EXPECT_EQ(g.vec(), Bits(6, {1, 2}));

  g.remove(ClusterCell{&b, 0.25});
  EXPECT_TRUE(g.empty());
  EXPECT_TRUE(g.vec().none());
  EXPECT_THROW(g.remove(ClusterCell{&b, 0.25}), std::logic_error);
}

TEST(GroupState, MergeFromCombinesCounts) {
  const BitVector a = Bits(6, {0});
  const BitVector b = Bits(6, {0, 1});
  GroupState g(6), h(6);
  g.add(ClusterCell{&a, 0.1});
  h.add(ClusterCell{&b, 0.2});
  g.merge_from(h);
  EXPECT_EQ(g.size(), 2u);
  EXPECT_DOUBLE_EQ(g.prob(), 0.30000000000000004);
  EXPECT_EQ(g.vec(), Bits(6, {0, 1}));
  // After removing b's cell, bit 0 must survive via a's count.
  g.remove(ClusterCell{&b, 0.2});
  EXPECT_EQ(g.vec(), Bits(6, {0}));
}

TEST(GroupState, DistanceToCellMatchesFormula) {
  const BitVector a = Bits(6, {0, 1});
  const BitVector b = Bits(6, {2});
  GroupState g(6);
  g.add(ClusterCell{&a, 0.5});
  const ClusterCell cell{&b, 0.2};
  // |cell\g| = 1, |g\cell| = 2.
  EXPECT_DOUBLE_EQ(g.distance_to(cell), 0.2 * 1 + 0.5 * 2);
}

TEST(TotalExpectedWasteTest, ZeroWhenGroupsHomogeneous) {
  const BitVector a = Bits(4, {0, 1});
  const BitVector b = Bits(4, {2});
  const std::vector<ClusterCell> cells = {{&a, 0.3}, {&a, 0.4}, {&b, 0.2}};
  EXPECT_EQ(TotalExpectedWaste(cells, {0, 0, 1}, 2), 0.0);
}

TEST(TotalExpectedWasteTest, CountsForeignBitsWeightedByProb) {
  const BitVector a = Bits(4, {0});
  const BitVector b = Bits(4, {1, 2});
  const std::vector<ClusterCell> cells = {{&a, 0.5}, {&b, 0.25}};
  // One group: s(g) = {0,1,2}.  Waste = 0.5·|{1,2}| + 0.25·|{0}|.
  EXPECT_DOUBLE_EQ(TotalExpectedWaste(cells, {0, 0}, 1), 0.5 * 2 + 0.25 * 1);
}

TEST(TotalExpectedWasteTest, UnclusteredCellsFree) {
  const BitVector a = Bits(4, {0});
  const BitVector b = Bits(4, {1});
  const std::vector<ClusterCell> cells = {{&a, 0.5}, {&b, 0.5}};
  EXPECT_EQ(TotalExpectedWaste(cells, {0, -1}, 1), 0.0);
}

TEST(TotalExpectedWasteTest, Validation) {
  const BitVector a = Bits(4, {0});
  const std::vector<ClusterCell> cells = {{&a, 0.5}};
  EXPECT_THROW(TotalExpectedWaste(cells, {0, 1}, 2), std::invalid_argument);
  EXPECT_THROW(TotalExpectedWaste(cells, {5}, 2), std::invalid_argument);
}

// Random churn over one group: the incrementally-maintained cardinality(),
// unique() and waste() must track a from-scratch recomputation after every
// add/remove.
TEST(GroupState, IncrementalStateTracksOracleUnderChurn) {
  Rng rng(11);
  const std::size_t ns = 130;  // spans three 64-bit words
  std::vector<BitVector> storage;
  storage.reserve(40);
  std::vector<ClusterCell> cells;
  for (std::size_t c = 0; c < 40; ++c) {
    BitVector v(ns);
    for (std::size_t i = 0; i < ns; ++i)
      if (rng.bernoulli(0.2)) v.set(i);
    if (v.none()) v.set(c);
    storage.push_back(std::move(v));
    cells.push_back(ClusterCell{&storage.back(), 0.01 + rng.uniform()});
  }

  GroupState g(ns);
  std::vector<char> in(cells.size(), 0);
  for (int step = 0; step < 200; ++step) {
    const auto i =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(cells.size()) - 1));
    if (in[i]) {
      g.remove(cells[i]);
      in[i] = 0;
    } else {
      g.add(cells[i]);
      in[i] = 1;
    }

    // Oracle: materialize union, per-bit counts, and the waste sum.
    BitVector want_vec(ns), want_unique(ns);
    std::vector<int> counts(ns, 0);
    double want_waste = 0.0;
    std::vector<ClusterCell> members;
    for (std::size_t j = 0; j < cells.size(); ++j) {
      if (!in[j]) continue;
      members.push_back(cells[j]);
      want_vec |= *cells[j].members;
      cells[j].members->for_each_set([&](std::size_t b) { ++counts[b]; });
    }
    for (std::size_t b = 0; b < ns; ++b)
      if (counts[b] == 1) want_unique.set(b);
    for (const ClusterCell& m : members)
      want_waste += m.prob * static_cast<double>(want_vec.count_and_not(*m.members));

    ASSERT_EQ(g.vec(), want_vec);
    ASSERT_EQ(g.unique(), want_unique);
    ASSERT_EQ(g.cardinality(), want_vec.count());
    // waste() associates differently (prob·card − member_mass), so compare
    // to the per-member sum within FP slack proportional to the magnitude.
    ASSERT_NEAR(g.waste(), want_waste, 1e-9 * (1.0 + want_waste));
    // And against the global objective with every member in group 0.
    if (!members.empty()) {
      Assignment all_zero(members.size(), 0);
      ASSERT_NEAR(g.waste(), TotalExpectedWaste(members, all_zero, 1),
                  1e-9 * (1.0 + want_waste));
    }
  }
}

// distance_to_excluding must be bit-identical to the mutate/measure/restore
// dance it replaces, and report the union bits the member uniquely holds.
TEST(GroupState, DistanceToExcludingMatchesRemoveAddDance) {
  Rng rng(12);
  const std::size_t ns = 190;
  std::vector<BitVector> storage;
  storage.reserve(12);
  std::vector<ClusterCell> cells;
  for (std::size_t c = 0; c < 12; ++c) {
    BitVector v(ns);
    for (std::size_t i = 0; i < ns; ++i)
      if (rng.bernoulli(0.3)) v.set(i);
    if (v.none()) v.set(c);
    storage.push_back(std::move(v));
    cells.push_back(ClusterCell{&storage.back(), 0.01 + rng.uniform()});
  }
  GroupState g(ns);
  for (const ClusterCell& c : cells) g.add(c);

  for (const ClusterCell& c : cells) {
    std::size_t unique_bits = 0;
    const double fast = g.distance_to_excluding(c, &unique_bits);
    EXPECT_EQ(unique_bits, c.members->count_and(g.unique()));

    GroupState h(ns);
    for (const ClusterCell& m : cells) h.add(m);
    h.remove(c);
    const double slow = h.distance_to(c);
    EXPECT_EQ(fast, slow);  // bit-identical, not just close
  }
}

// The batched kernel must produce bit-identical distances to per-candidate
// distance_to calls, across block boundaries (kBlock = 8 internally).
TEST(BatchedGroupWasteTest, BitIdenticalToPerCandidateDistance) {
  Rng rng(13);
  const std::size_t ns = 200;
  std::vector<BitVector> storage;
  storage.reserve(30);
  std::vector<ClusterCell> cells;
  for (std::size_t c = 0; c < 30; ++c) {
    BitVector v(ns);
    for (std::size_t i = 0; i < ns; ++i)
      if (rng.bernoulli(0.25)) v.set(i);
    if (v.none()) v.set(c);
    storage.push_back(std::move(v));
    cells.push_back(ClusterCell{&storage.back(), 0.01 + rng.uniform()});
  }
  std::vector<GroupState> groups;
  for (int gi = 0; gi < 19; ++gi) {  // not a multiple of the block size
    groups.emplace_back(ns);
    for (int m = 0; m < 3; ++m)
      groups.back().add(cells[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(cells.size()) - 1))]);
  }
  std::vector<int> cand(groups.size());
  for (std::size_t j = 0; j < cand.size(); ++j)
    cand[j] = static_cast<int>(cand.size() - 1 - j);  // arbitrary order

  // Up to 8 candidates share one sweep; more take the per-candidate path.
  // Each distance is also checked against counts from per-bit test()
  // loops, which share no popcount kernel with either path.
  for (const std::size_t count : {1, 5, 8, 9, 19}) {
    for (const ClusterCell& cell : cells) {
      std::vector<double> dist(count);
      std::vector<std::size_t> cell_not_g(count);
      BatchedGroupWaste(cell, groups, cand.data(), count, dist.data(),
                        cell_not_g.data());
      for (std::size_t j = 0; j < count; ++j) {
        const GroupState& g = groups[static_cast<std::size_t>(cand[j])];
        std::size_t c_only = 0, g_only = 0;
        for (std::size_t i = 0; i < ns; ++i) {
          c_only += cell.members->test(i) && !g.vec().test(i);
          g_only += g.vec().test(i) && !cell.members->test(i);
        }
        EXPECT_EQ(dist[j], g.distance_to(cell)) << "count=" << count;
        EXPECT_EQ(dist[j], cell.prob * static_cast<double>(c_only) +
                               g.prob() * static_cast<double>(g_only))
            << "count=" << count;
        EXPECT_EQ(cell_not_g[j], c_only) << "count=" << count;
      }
    }
  }
}

TEST(ClusterCellTest, PopularityIsProbTimesCount) {
  const BitVector a = Bits(10, {1, 2, 3, 4});
  EXPECT_DOUBLE_EQ((ClusterCell{&a, 0.25}.popularity()), 1.0);
}

}  // namespace
}  // namespace pubsub
