#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "index/rtree.h"
#include "index/spatial_index.h"

namespace pubsub {
namespace {

Rect RandRect(std::mt19937_64& rng, int dims, int domain) {
  std::vector<Interval> ivals;
  for (int d = 0; d < dims; ++d) {
    double a = static_cast<double>(rng() % static_cast<unsigned>(domain));
    double b = static_cast<double>(rng() % static_cast<unsigned>(domain));
    if (a > b) std::swap(a, b);
    ivals.emplace_back(a - 1.0, b);
  }
  return Rect(std::move(ivals));
}

Point RandPoint(std::mt19937_64& rng, int dims, int domain) {
  Point p;
  for (int d = 0; d < dims; ++d)
    p.push_back(static_cast<double>(rng() % static_cast<unsigned>(domain)));
  return p;
}

std::vector<int> Sorted(std::vector<int> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(RTree, EmptyTreeAnswersNothing) {
  RTree t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.height(), 0);
  EXPECT_TRUE(t.stab(Point{1.0, 1.0}).empty());
  EXPECT_TRUE(t.check_invariants());
}

TEST(RTree, RejectsEmptyAndUnboundedRects) {
  EXPECT_THROW(RTree::BulkLoad({{Rect({Interval(3, 3)}), 0}}),
               std::invalid_argument);
  EXPECT_THROW(RTree::BulkLoad({{Rect({Interval::All()}), 0}}),
               std::invalid_argument);
}

TEST(RTree, SingleEntryStab) {
  const RTree t =
      RTree::BulkLoad({{Rect({Interval(0, 2), Interval(0, 2)}), 7}});
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.stab(Point{1.0, 1.0}), std::vector<int>{7});
  EXPECT_TRUE(t.stab(Point{0.0, 1.0}).empty());  // open left edge
  EXPECT_EQ(t.stab(Point{2.0, 2.0}), std::vector<int>{7});
  EXPECT_TRUE(t.check_invariants());
}

// Property suite: a bulk-loaded R-tree must agree with the brute-force
// LinearIndex on stab, intersection and containment queries.
// gtest names each case after the raw bytes of its parameter, so the struct
// has no padding: a bool here left three uninitialised bytes in every test
// name, and the names changed from one test discovery to the next.  For
// the same reason every case keeps its third field `bulk` = 1 (BulkLoad is
// the only way to fill a tree): dropping it would rename every case.
struct RTreeParam {
  int seed;
  int entries;
  int bulk;  // always 1
};

class RTreeOracleTest : public ::testing::TestWithParam<RTreeParam> {};

TEST_P(RTreeOracleTest, AgreesWithLinearIndex) {
  const RTreeParam param = GetParam();
  std::mt19937_64 rng(static_cast<std::uint64_t>(param.seed));
  constexpr int kDims = 3, kDomain = 12;

  LinearIndex oracle;
  std::vector<std::pair<Rect, int>> items;
  for (int i = 0; i < param.entries; ++i) {
    const Rect r = RandRect(rng, kDims, kDomain);
    if (r.empty()) continue;
    oracle.insert(r, i);
    items.emplace_back(r, i);
  }
  const RTree tree = RTree::BulkLoad(std::move(items));

  EXPECT_EQ(tree.size(), oracle.size());
  EXPECT_TRUE(tree.check_invariants());

  for (int q = 0; q < 60; ++q) {
    const Point p = RandPoint(rng, kDims, kDomain);
    EXPECT_EQ(Sorted(tree.stab(p)), Sorted(oracle.stab(p))) << "stab";
    const Rect w = RandRect(rng, kDims, kDomain);
    if (w.empty()) continue;
    EXPECT_EQ(Sorted(tree.intersecting(w)), Sorted(oracle.intersecting(w)))
        << "intersecting";
    EXPECT_EQ(Sorted(tree.containing(w)), Sorted(oracle.containing(w)))
        << "containing";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RTreeOracleTest,
    ::testing::Values(RTreeParam{4, 10, 1}, RTreeParam{5, 100, 1},
                      RTreeParam{6, 800, 1}, RTreeParam{7, 2500, 1}));

TEST(RTree, BulkLoadIsBalancedAndShallow) {
  std::mt19937_64 rng(9);
  std::vector<std::pair<Rect, int>> items;
  for (int i = 0; i < 4000; ++i) items.emplace_back(RandRect(rng, 2, 100), i);
  const RTree t = RTree::BulkLoad(std::move(items), 8);
  EXPECT_EQ(t.size(), 4000u);
  EXPECT_TRUE(t.check_invariants());
  // ceil(log_8(4000/8)) + 1 levels ≈ 4; give slack of one.
  EXPECT_LE(t.height(), 5);
}

TEST(RTree, DuplicateRectanglesAllReported) {
  const Rect r({Interval(0, 5)});
  std::vector<std::pair<Rect, int>> items;
  for (int i = 0; i < 30; ++i) items.emplace_back(r, i);
  const RTree t = RTree::BulkLoad(std::move(items));
  EXPECT_EQ(t.stab(Point{3.0}).size(), 30u);
  EXPECT_TRUE(t.check_invariants());
}

TEST(RTree, MoveSemantics) {
  RTree a = RTree::BulkLoad({{Rect({Interval(0, 1)}), 1}});
  RTree b = std::move(a);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(b.stab(Point{0.5}), std::vector<int>{1});
}

}  // namespace
}  // namespace pubsub
