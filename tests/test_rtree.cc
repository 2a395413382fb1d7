#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "index/rtree.h"

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

// The tree's containment answer, sorted.
std::vector<int> Containing(const RTree& t, const Rect& r) {
  std::vector<int> out;
  t.containing(r, out);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(RTree, EmptyTreeAnswersNothing) {
  RTree t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.height(), 0);
  EXPECT_TRUE(Containing(t, Rect({Interval(0, 1), Interval(0, 1)})).empty());
  EXPECT_TRUE(t.check_invariants());
}

TEST(RTree, RejectsEmptyAndUnboundedRects) {
  EXPECT_THROW(RTree::BulkLoad({{Rect({Interval(3, 3)}), 0}}),
               std::invalid_argument);
  EXPECT_THROW(RTree::BulkLoad({{Rect({Interval::All()}), 0}}),
               std::invalid_argument);
}

TEST(RTree, SingleEntryContainment) {
  const RTree t =
      RTree::BulkLoad({{Rect({Interval(0, 2), Interval(0, 2)}), 7}});
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(Containing(t, Rect({Interval(0, 1), Interval(0, 1)})),
            std::vector<int>{7});
  EXPECT_EQ(Containing(t, Rect({Interval(0, 2), Interval(0, 2)})),
            std::vector<int>{7});  // a rectangle contains itself
  EXPECT_TRUE(Containing(t, Rect({Interval(-1, 1), Interval(0, 1)}))
                  .empty());  // sticks out past the left edge
  EXPECT_TRUE(Containing(t, Rect({Interval(1, 3), Interval(0, 1)}))
                  .empty());  // sticks out past the right edge
  EXPECT_TRUE(t.check_invariants());
}

// Property suite: a bulk-loaded R-tree must answer containment queries as
// a brute-force scan over the same rectangles does.
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

TEST_P(RTreeOracleTest, AgreesWithBruteForce) {
  const RTreeParam param = GetParam();
  std::mt19937_64 rng(static_cast<std::uint64_t>(param.seed));
  constexpr int kDims = 3, kDomain = 12;

  std::vector<std::pair<Rect, int>> items;
  for (int i = 0; i < param.entries; ++i) {
    const Rect r = RandRect(rng, kDims, kDomain);
    if (r.empty()) continue;
    items.emplace_back(r, i);
  }
  const RTree tree = RTree::BulkLoad(items);

  EXPECT_EQ(tree.size(), items.size());
  EXPECT_TRUE(tree.check_invariants());

  for (int q = 0; q < 60; ++q) {
    // A random window, and the unit cell (v−1, v] of a random lattice
    // point, which a stored rectangle contains iff it holds the point.
    std::vector<Interval> cell;
    for (int d = 0; d < kDims; ++d) {
      const double v =
          static_cast<double>(rng() % static_cast<unsigned>(kDomain));
      cell.emplace_back(v - 1.0, v);
    }
    for (const Rect& w :
         {RandRect(rng, kDims, kDomain), Rect(std::move(cell))}) {
      if (w.empty()) continue;
      std::vector<int> want;  // ascending: `items` is in id order
      for (const auto& [rect, id] : items)
        if (rect.contains(w)) want.push_back(id);
      EXPECT_EQ(Containing(tree, w), want) << "query " << q;
    }
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
  EXPECT_EQ(Containing(t, Rect({Interval(2, 3)})).size(), 30u);
  EXPECT_TRUE(t.check_invariants());
}

TEST(RTree, MoveSemantics) {
  RTree a = RTree::BulkLoad({{Rect({Interval(0, 1)}), 1}});
  RTree b = std::move(a);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(Containing(b, Rect({Interval(0.25, 0.75)})), std::vector<int>{1});
}

}  // namespace
}  // namespace pubsub
