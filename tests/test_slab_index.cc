#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>

#include "index/slab_index.h"
#include "index/spatial_index.h"

namespace pubsub {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

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

TEST(SlabIndex, EmptyIndexAnswersNothing) {
  const SlabIndex idx({}, 0);
  EXPECT_EQ(idx.size(), 0u);
  std::vector<int> out{99};
  std::vector<std::uint64_t> tmp;
  idx.stab(Point{1.0}, out, tmp);
  EXPECT_TRUE(out.empty());
}

TEST(SlabIndex, HalfOpenBoundarySemantics) {
  // (0, 2] x (0, 2]: the lower edge is excluded, the upper edge included —
  // the repo-wide interval convention (geometry/interval.h).
  const SlabIndex idx({{Rect({Interval(0, 2), Interval(0, 2)}), 7}}, 8);
  std::vector<int> out;
  std::vector<std::uint64_t> tmp;
  idx.stab(Point{1.0, 1.0}, out, tmp);
  EXPECT_EQ(out, std::vector<int>{7});
  idx.stab(Point{0.0, 1.0}, out, tmp);
  EXPECT_TRUE(out.empty()) << "open left edge";
  idx.stab(Point{2.0, 2.0}, out, tmp);
  EXPECT_EQ(out, std::vector<int>{7});
  idx.stab(Point{2.0 + 1e-9, 2.0}, out, tmp);
  EXPECT_TRUE(out.empty()) << "closed right edge";
}

TEST(SlabIndex, UnboundedIntervalsCoverEdgePieces) {
  // Unlike the R-tree, the slab index accepts unbounded intervals (they map
  // to the open edge pieces of the decomposition).
  const SlabIndex idx(
      {{Rect({Interval(-kInf, 5.0)}), 0}, {Rect({Interval(5.0, kInf)}), 1}},
      2);
  std::vector<int> out;
  std::vector<std::uint64_t> tmp;
  idx.stab(Point{-1000.0}, out, tmp);
  EXPECT_EQ(out, std::vector<int>{0});
  idx.stab(Point{5.0}, out, tmp);
  EXPECT_EQ(out, std::vector<int>{0});  // hi=5 closed, lo=5 open
  idx.stab(Point{5.5}, out, tmp);
  EXPECT_EQ(out, std::vector<int>{1});
  idx.stab(Point{1000.0}, out, tmp);
  EXPECT_EQ(out, std::vector<int>{1});
}

TEST(SlabIndex, RejectsIdsOutsideUniverse) {
  EXPECT_THROW(SlabIndex({{Rect({Interval(0, 1)}), 3}}, 3),
               std::invalid_argument);
  EXPECT_THROW(SlabIndex({{Rect({Interval(0, 1)}), -1}}, 3),
               std::invalid_argument);
}

// Property suite: the slab index must agree with the brute-force
// LinearIndex on stabbing queries — including queries placed exactly on
// stored endpoints, where the half-open piece decomposition is most likely
// to be off by one.  Output must arrive in ascending id order (the broker's
// sorted-set convention).
struct SlabParam {
  int seed;
  int entries;
  int dims;
};

class SlabOracleTest : public ::testing::TestWithParam<SlabParam> {};

TEST_P(SlabOracleTest, AgreesWithLinearIndexInAscendingOrder) {
  const SlabParam param = GetParam();
  std::mt19937_64 rng(static_cast<std::uint64_t>(param.seed));
  constexpr int kDomain = 12;

  LinearIndex oracle;
  std::vector<std::pair<Rect, int>> items;
  for (int i = 0; i < param.entries; ++i) {
    const Rect r = RandRect(rng, param.dims, kDomain);
    if (r.empty()) continue;
    oracle.insert(r, i);
    items.emplace_back(r, i);
  }
  const SlabIndex idx(items, static_cast<std::size_t>(param.entries));
  EXPECT_EQ(idx.size(), oracle.size());

  std::vector<int> out;
  std::vector<std::uint64_t> tmp;
  auto check = [&](const Point& p) {
    idx.stab(p, out, tmp);
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end())) << "ascending order";
    EXPECT_EQ(out, Sorted(oracle.stab(p)));
  };
  for (int q = 0; q < 80; ++q) check(RandPoint(rng, param.dims, kDomain));
  // Boundary probes: every coordinate sits exactly on a stored endpoint.
  for (int q = 0; q < 40 && !items.empty(); ++q) {
    Point p;
    for (int d = 0; d < param.dims; ++d) {
      const Rect& r = items[rng() % items.size()].first;
      p.push_back(rng() % 2 == 0 ? r[static_cast<std::size_t>(d)].lo()
                                 : r[static_cast<std::size_t>(d)].hi());
    }
    check(p);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SlabOracleTest,
    ::testing::Values(SlabParam{1, 10, 1}, SlabParam{2, 100, 2},
                      SlabParam{3, 500, 3}, SlabParam{4, 65, 4},
                      SlabParam{5, 1000, 2}, SlabParam{6, 64, 1}));

// --- Satellite 1: stabs placed exactly on stored endpoints ---------------
// The piece decomposition is most fragile where lower_bound lands on a
// stored value; every probe is checked against Interval/Rect::contains —
// the ground-truth (lo, hi] semantics — not against another index.

TEST(SlabIndexBoundary, ExactEndpointStabsMatchRectContains) {
  std::mt19937_64 rng(7);
  std::vector<std::pair<Rect, int>> items;
  for (int i = 0; i < 40; ++i) items.emplace_back(RandRect(rng, 2, 6), i);
  const SlabIndex idx(items, items.size());

  std::vector<int> out;
  std::vector<std::uint64_t> tmp;
  // Probe the full endpoint cross-product: every stored lo/hi value in
  // each dimension, including corners shared by several rectangles.
  std::vector<std::vector<double>> coords(2);
  for (const auto& [r, id] : items)
    for (std::size_t d = 0; d < 2; ++d) {
      coords[d].push_back(r[d].lo());
      coords[d].push_back(r[d].hi());
    }
  for (const double x : coords[0])
    for (const double y : coords[1]) {
      const Point p{x, y};
      idx.stab(p, out, tmp);
      std::vector<int> expect;
      for (const auto& [r, id] : items)
        if (r.contains(p)) expect.push_back(id);
      EXPECT_EQ(out, expect) << "probe (" << x << ", " << y << ")";
    }
}

TEST(SlabIndexBoundary, SharedEndpointSeparatesTouchingRects) {
  // (0, 1] and (1, 2] touch at 1: a stab at exactly 1.0 must hit only the
  // left rect (its closed hi), never the right (its open lo).
  SlabIndex idx;
  idx.insert(Rect({Interval(0.0, 1.0)}), 0);
  idx.insert(Rect({Interval(1.0, 2.0)}), 1);
  std::vector<int> out;
  std::vector<std::uint64_t> tmp;
  idx.stab(Point{1.0}, out, tmp);
  EXPECT_EQ(out, std::vector<int>{0});
  idx.stab(Point{2.0}, out, tmp);
  EXPECT_EQ(out, std::vector<int>{1});
  // Erasing the left rect leaves its endpoints dead but must not shift the
  // boundary semantics of the survivor.
  EXPECT_TRUE(idx.erase(0));
  idx.stab(Point{1.0}, out, tmp);
  EXPECT_TRUE(out.empty());
  idx.stab(Point{1.5}, out, tmp);
  EXPECT_EQ(out, std::vector<int>{1});
}

// --- Satellite 2: degenerate inputs --------------------------------------

TEST(SlabIndexDegenerate, EmptyItemSetAndZeroUniverse) {
  const SlabIndex idx({}, 0);
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_EQ(idx.word_count(), 0u);
  EXPECT_EQ(idx.universe(), 0u);
  EXPECT_EQ(idx.endpoint_count(), 0u);
  EXPECT_EQ(idx.dead_endpoints(), 0u);
  EXPECT_FALSE(idx.contains(0));
  std::vector<int> out{5};
  std::vector<std::uint64_t> tmp;
  idx.stab(Point{0.0}, out, tmp);
  EXPECT_TRUE(out.empty());
}

TEST(SlabIndexDegenerate, AllEmptyRectsBulkLoadIndexNothing) {
  const Rect empty(std::vector<Interval>(2, Interval()));
  const SlabIndex idx({{empty, 0}, {empty, 1}}, 2);
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_EQ(idx.endpoint_count(), 0u);
  EXPECT_FALSE(idx.contains(0));
  EXPECT_FALSE(idx.contains(1));
  std::vector<int> out;
  std::vector<std::uint64_t> tmp;
  idx.stab(Point{0.0, 0.0}, out, tmp);
  EXPECT_TRUE(out.empty());
}

TEST(SlabIndexDegenerate, DuplicateEndpointsAreSharedNotRepeated) {
  // Four rects reusing the same two endpoint values per dimension: the
  // endpoint table holds each distinct value once.
  const Rect r({Interval(1.0, 4.0), Interval(1.0, 4.0)});
  const SlabIndex idx({{r, 0}, {r, 1}, {r, 2}, {r, 3}}, 4);
  EXPECT_EQ(idx.size(), 4u);
  EXPECT_EQ(idx.endpoint_count(), 4u);  // {1, 4} in each of 2 dims
  std::vector<int> out;
  std::vector<std::uint64_t> tmp;
  idx.stab(Point{2.0, 2.0}, out, tmp);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SlabIndexDegenerate, IncrementalEdgeCases) {
  SlabIndex idx;
  // Empty rect: a no-op insert, not an error.
  idx.insert(Rect({Interval()}), 3);
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_FALSE(idx.contains(3));
  // Erase of an absent id reports false.
  EXPECT_FALSE(idx.erase(3));
  EXPECT_THROW(idx.insert(Rect({Interval(0, 1)}), -1), std::invalid_argument);

  // An insert past the universe grows it to cover the id.
  idx.insert(Rect({Interval(0.0, 2.0)}), 70);
  EXPECT_TRUE(idx.contains(70));
  EXPECT_GE(idx.universe(), 71u);
  EXPECT_EQ(idx.word_count(), 2u);
  std::vector<int> out;
  std::vector<std::uint64_t> tmp;
  idx.stab(Point{1.0}, out, tmp);
  EXPECT_EQ(out, std::vector<int>{70});

  // Erasing the last id empties the index.
  EXPECT_TRUE(idx.erase(70));
  EXPECT_FALSE(idx.contains(70));
  EXPECT_EQ(idx.size(), 0u);

  // An emptied index may adopt a new dimensionality.
  idx.insert(Rect({Interval(0, 1), Interval(0, 1)}), 0);
  EXPECT_TRUE(idx.contains(0));
  EXPECT_THROW(idx.insert(Rect({Interval(0, 1)}), 1), std::invalid_argument);
  EXPECT_THROW(idx.insert(Rect({Interval(5, 9), Interval(0, 1)}), 0),
               std::invalid_argument);  // duplicate id
}

TEST(SlabIndexDegenerate, IncrementalUnboundedIntervals) {
  SlabIndex idx;
  idx.insert(Rect({Interval::All()}), 0);
  EXPECT_EQ(idx.endpoint_count(), 0u);  // no finite endpoints to splice
  idx.insert(Rect({Interval::AtMost(3.0)}), 1);
  idx.insert(Rect({Interval::GreaterThan(3.0)}), 2);
  std::vector<int> out;
  std::vector<std::uint64_t> tmp;
  idx.stab(Point{-1e18}, out, tmp);
  EXPECT_EQ(out, (std::vector<int>{0, 1}));
  idx.stab(Point{3.0}, out, tmp);
  EXPECT_EQ(out, (std::vector<int>{0, 1}));
  idx.stab(Point{1e18}, out, tmp);
  EXPECT_EQ(out, (std::vector<int>{0, 2}));
}

// --- Maintenance telemetry and the rebuild-threshold heuristic -----------

TEST(SlabIndexMaintenance, SpliceAndDeadEndpointCountsTrackChurn) {
  SlabIndex idx;
  idx.insert(Rect({Interval(0.0, 4.0)}), 0);
  EXPECT_EQ(idx.spliced_endpoints(), 2u);
  idx.insert(Rect({Interval(0.0, 4.0)}), 1);  // same endpoints: no splice
  EXPECT_EQ(idx.spliced_endpoints(), 2u);
  idx.insert(Rect({Interval(2.0, 6.0)}), 2);  // 2 and 6 are new
  EXPECT_EQ(idx.spliced_endpoints(), 4u);
  EXPECT_EQ(idx.endpoint_count(), 4u);

  EXPECT_TRUE(idx.erase(2));
  EXPECT_EQ(idx.dead_endpoints(), 2u);  // 2 and 6 now unreferenced
  EXPECT_EQ(idx.endpoint_count(), 4u);  // left in place until rebuild
  // Re-inserting over a dead endpoint resurrects it instead of splicing.
  idx.insert(Rect({Interval(2.0, 4.0)}), 2);
  EXPECT_EQ(idx.dead_endpoints(), 1u);
  EXPECT_EQ(idx.spliced_endpoints(), 4u);
}

TEST(SlabIndexMaintenance, ThresholdRebuildCompactsDeadEndpoints) {
  SlabIndex idx({}, 0, SlabIndex::MaintenanceOptions{2, 0.0});
  for (int i = 0; i < 6; ++i)
    idx.insert(Rect({Interval(10.0 * i, 10.0 * i + 5.0)}), i);
  EXPECT_EQ(idx.endpoint_count(), 12u);
  EXPECT_EQ(idx.rebuilds(), 0u);
  EXPECT_TRUE(idx.erase(1));  // 2 dead: reaches min_dead, exceeds 0.0 * live
  EXPECT_GE(idx.rebuilds(), 1u);
  EXPECT_EQ(idx.dead_endpoints(), 0u);
  EXPECT_EQ(idx.endpoint_count(), 10u);  // compacted

  // Stabs remain exact across the rebuild.
  std::vector<int> out;
  std::vector<std::uint64_t> tmp;
  idx.stab(Point{12.0}, out, tmp);
  EXPECT_TRUE(out.empty()) << "erased rect must stay gone";
  idx.stab(Point{22.0}, out, tmp);
  EXPECT_EQ(out, std::vector<int>{2});
}

// --- Satellite 4: randomized churn fuzz ----------------------------------
// After EVERY operation the incrementally maintained index must stab
// bit-identically to a from-scratch rebuild of the same rectangle set.
// Probes mix random points with endpoint-exact points, and the tight
// MaintenanceOptions force threshold rebuilds mid-run.

struct ChurnParam {
  int seed;
  int dims;
  int ops;
};

class SlabChurnFuzz : public ::testing::TestWithParam<ChurnParam> {};

Rect RandRectMaybeUnbounded(std::mt19937_64& rng, int dims, int domain) {
  Rect r = RandRect(rng, dims, domain);
  if (rng() % 4 != 0) return r;
  std::vector<Interval> ivals;
  for (int d = 0; d < dims; ++d) {
    const Interval& iv = r[static_cast<std::size_t>(d)];
    switch (rng() % 4) {
      case 0: ivals.emplace_back(-kInf, iv.hi()); break;
      case 1: ivals.emplace_back(iv.lo(), kInf); break;
      case 2: ivals.push_back(Interval::All()); break;
      default: ivals.push_back(iv); break;
    }
  }
  return Rect(std::move(ivals));
}

TEST_P(SlabChurnFuzz, IncrementalStabsMatchFromScratchRebuild) {
  const ChurnParam param = GetParam();
  std::mt19937_64 rng(static_cast<std::uint64_t>(param.seed));
  // Wide enough that erased rects orphan endpoints (exercising the rebuild
  // threshold), narrow enough that sharing and exact-endpoint collisions
  // still occur.
  constexpr int kDomain = 64;
  constexpr int kIdSpace = 48;

  SlabIndex inc({}, 0, SlabIndex::MaintenanceOptions{2, 0.25});
  std::vector<Rect> live(kIdSpace, Rect(std::vector<Interval>(
                                       static_cast<std::size_t>(param.dims),
                                       Interval())));
  auto live_items = [&] {
    std::vector<std::pair<Rect, int>> items;
    for (int i = 0; i < kIdSpace; ++i)
      if (!live[static_cast<std::size_t>(i)].empty())
        items.emplace_back(live[static_cast<std::size_t>(i)], i);
    return items;
  };

  std::vector<int> got, want;
  std::vector<std::uint64_t> tmp_a, tmp_b;
  for (int op = 0; op < param.ops; ++op) {
    const int id = static_cast<int>(rng() % kIdSpace);
    const bool resident = !live[static_cast<std::size_t>(id)].empty();
    switch (rng() % 3) {
      case 0:  // insert (fresh id only — duplicate insert throws)
        if (!resident) {
          const Rect r = RandRectMaybeUnbounded(rng, param.dims, kDomain);
          inc.insert(r, id);
          if (!r.empty()) live[static_cast<std::size_t>(id)] = r;
        }
        break;
      case 1:
        EXPECT_EQ(inc.erase(id), resident);
        live[static_cast<std::size_t>(id)] =
            Rect(std::vector<Interval>(static_cast<std::size_t>(param.dims),
                                       Interval()));
        break;
      default: {
        // Update: replace id's rectangle (an empty one leaves it absent).
        const Rect r = RandRectMaybeUnbounded(rng, param.dims, kDomain);
        inc.erase(id);
        inc.insert(r, id);
        live[static_cast<std::size_t>(id)] =
            r.empty() ? Rect(std::vector<Interval>(
                            static_cast<std::size_t>(param.dims), Interval()))
                      : r;
        break;
      }
    }

    const SlabIndex scratch(live_items(), inc.universe());
    ASSERT_EQ(inc.size(), scratch.size()) << "op " << op;
    for (int q = 0; q < 6; ++q) {
      Point p = RandPoint(rng, param.dims, kDomain);
      if (q % 2 == 1) {  // endpoint-exact probe
        const auto items = live_items();
        if (!items.empty())
          for (int d = 0; d < param.dims; ++d) {
            const Interval& iv =
                items[rng() % items.size()].first[static_cast<std::size_t>(d)];
            const double v = rng() % 2 == 0 ? iv.lo() : iv.hi();
            if (v == -kInf || v == kInf) continue;
            p[static_cast<std::size_t>(d)] = v;
          }
      }
      inc.stab(p, got, tmp_a);
      scratch.stab(p, want, tmp_b);
      ASSERT_EQ(got, want) << "op " << op << " probe " << q;
    }
  }
  // The tight maintenance options must have exercised the rebuild path.
  if (param.ops >= 200) {
    EXPECT_GE(inc.rebuilds(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SlabChurnFuzz,
                         ::testing::Values(ChurnParam{11, 1, 300},
                                           ChurnParam{12, 2, 300},
                                           ChurnParam{13, 3, 200},
                                           ChurnParam{14, 2, 600}));

}  // namespace
}  // namespace pubsub
