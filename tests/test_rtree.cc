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
  RTree t;
  EXPECT_THROW(t.insert(Rect({Interval(3, 3)}), 0), std::invalid_argument);
  EXPECT_THROW(t.insert(Rect({Interval::All()}), 0), std::invalid_argument);
}

TEST(RTree, SingleEntryStab) {
  RTree t;
  t.insert(Rect({Interval(0, 2), Interval(0, 2)}), 7);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.stab(Point{1.0, 1.0}), std::vector<int>{7});
  EXPECT_TRUE(t.stab(Point{0.0, 1.0}).empty());  // open left edge
  EXPECT_EQ(t.stab(Point{2.0, 2.0}), std::vector<int>{7});
  EXPECT_TRUE(t.check_invariants());
}

// Property suite: R-tree (incremental and bulk-loaded) must agree with the
// brute-force LinearIndex on stab, intersection and containment queries.
// gtest names each case after the raw bytes of its parameter, so the struct
// has no padding: a bool here left three uninitialised bytes in every test
// name, and the names changed from one test discovery to the next.
struct RTreeParam {
  int seed;
  int entries;
  int bulk;  // 0 = incremental inserts, 1 = BulkLoad
};

class RTreeOracleTest : public ::testing::TestWithParam<RTreeParam> {};

TEST_P(RTreeOracleTest, AgreesWithLinearIndex) {
  const RTreeParam param = GetParam();
  std::mt19937_64 rng(static_cast<std::uint64_t>(param.seed));
  constexpr int kDims = 3, kDomain = 12;

  LinearIndex oracle;
  RTree tree;
  std::vector<std::pair<Rect, int>> items;
  for (int i = 0; i < param.entries; ++i) {
    const Rect r = RandRect(rng, kDims, kDomain);
    if (r.empty()) continue;
    oracle.insert(r, i);
    if (param.bulk)
      items.emplace_back(r, i);
    else
      tree.insert(r, i);
  }
  if (param.bulk) tree = RTree::BulkLoad(std::move(items));

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
    ::testing::Values(RTreeParam{1, 10, 0}, RTreeParam{2, 100, 0},
                      RTreeParam{3, 800, 0}, RTreeParam{4, 10, 1},
                      RTreeParam{5, 100, 1}, RTreeParam{6, 800, 1},
                      RTreeParam{7, 2500, 1}, RTreeParam{8, 2500, 0}));

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

TEST(RTree, IncrementalInsertKeepsInvariantsAsItGrows) {
  std::mt19937_64 rng(10);
  RTree t;
  for (int i = 0; i < 600; ++i) {
    t.insert(RandRect(rng, 2, 30), i);
    if (i % 50 == 0) EXPECT_TRUE(t.check_invariants()) << "after " << i;
  }
  EXPECT_TRUE(t.check_invariants());
  EXPECT_EQ(t.size(), 600u);
}

TEST(RTree, DuplicateRectanglesAllReported) {
  RTree t;
  const Rect r({Interval(0, 5)});
  for (int i = 0; i < 30; ++i) t.insert(r, i);
  EXPECT_EQ(t.stab(Point{3.0}).size(), 30u);
  EXPECT_TRUE(t.check_invariants());
}

TEST(RTree, EraseRemovesExactEntryOnly) {
  RTree t;
  const Rect a({Interval(0, 2)});
  const Rect b({Interval(1, 3)});
  t.insert(a, 1);
  t.insert(b, 2);
  EXPECT_FALSE(t.erase(a, 2));  // id mismatch
  EXPECT_FALSE(t.erase(b, 1));  // rect mismatch
  EXPECT_TRUE(t.erase(a, 1));
  EXPECT_FALSE(t.erase(a, 1));  // already gone
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.stab(Point{1.5}), std::vector<int>{2});
  EXPECT_TRUE(t.check_invariants());
  EXPECT_TRUE(t.erase(b, 2));
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.stab(Point{1.5}).empty());
  EXPECT_TRUE(t.check_invariants());
}

TEST(RTree, EraseUnderChurnMatchesOracle) {
  std::mt19937_64 rng(13);
  LinearIndex oracle_storage;  // only for generating rects
  std::vector<std::pair<Rect, int>> live;
  RTree tree;
  int next_id = 0;
  for (int step = 0; step < 3000; ++step) {
    const bool remove = !live.empty() && (rng() % 3 == 0);
    if (remove) {
      const std::size_t i = rng() % live.size();
      EXPECT_TRUE(tree.erase(live[i].first, live[i].second));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      const Rect r = RandRect(rng, 2, 20);
      if (r.empty()) continue;
      tree.insert(r, next_id);
      live.emplace_back(r, next_id);
      ++next_id;
    }
    if (step % 250 == 0) EXPECT_TRUE(tree.check_invariants()) << step;
  }
  EXPECT_EQ(tree.size(), live.size());
  EXPECT_TRUE(tree.check_invariants());

  // Final queries agree with a fresh brute-force index over the live set.
  LinearIndex oracle;
  for (const auto& [r, id] : live) oracle.insert(r, id);
  for (int q = 0; q < 40; ++q) {
    const Point p = RandPoint(rng, 2, 20);
    EXPECT_EQ(Sorted(tree.stab(p)), Sorted(oracle.stab(p)));
  }
}

TEST(RTree, EraseEverythingLeavesCleanTree) {
  std::mt19937_64 rng(14);
  RTree t;
  std::vector<std::pair<Rect, int>> items;
  for (int i = 0; i < 300; ++i) {
    const Rect r = RandRect(rng, 2, 15);
    if (r.empty()) continue;
    t.insert(r, i);
    items.emplace_back(r, i);
  }
  for (const auto& [r, id] : items) EXPECT_TRUE(t.erase(r, id));
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.height(), 0);
  EXPECT_TRUE(t.check_invariants());
  // The tree is reusable after full drain.
  t.insert(Rect({Interval(0, 1), Interval(0, 1)}), 7);
  EXPECT_EQ(t.stab(Point{0.5, 0.5}), std::vector<int>{7});
}

TEST(RTree, MoveSemantics) {
  RTree a;
  a.insert(Rect({Interval(0, 1)}), 1);
  RTree b = std::move(a);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(b.stab(Point{0.5}), std::vector<int>{1});
}

}  // namespace
}  // namespace pubsub
