#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <set>
#include <unordered_map>

#include "core/grid.h"
#include "sim/scenario.h"
#include "util/rng.h"
#include "workload/publication_model.h"

namespace pubsub {
namespace {

// Small hand-built workload on a 2-D space: attributes a ∈ {0..3},
// b ∈ {0..2}.  Publications uniform.
Workload SmallWorkload() {
  Workload wl;
  wl.space = EventSpace({{"a", 4}, {"b", 3}});
  auto add = [&wl](Interval ia, Interval ib) {
    Subscriber s;
    s.node = static_cast<NodeId>(wl.subscribers.size());
    s.interest = Rect({ia, ib});
    wl.subscribers.push_back(std::move(s));
  };
  add(Interval(-1, 1), Interval::All());     // sub 0: a∈{0,1}, all b
  add(Interval(0, 2), Interval(-1, 0));      // sub 1: a∈{1,2}, b=0
  add(Interval::Point(3), Interval::Point(2));  // sub 2: a=3, b=2
  return wl;
}

std::unique_ptr<PublicationModel> UniformPub(const Workload& wl) {
  std::vector<Marginal1D> marginals;
  for (std::size_t d = 0; d < wl.space.dims(); ++d)
    marginals.push_back(Marginal1D::UniformInt(wl.space.dim(d).domain_size));
  return std::make_unique<ProductPublicationModel>(wl.space, std::move(marginals),
                                                   std::vector<NodeId>{0});
}

TEST(Grid, MembershipMatchesBruteForce) {
  const Workload wl = SmallWorkload();
  const auto pub = UniformPub(wl);
  const Grid grid(wl, *pub);

  EXPECT_EQ(grid.num_lattice_cells(), 12);
  // Brute force: for each integer cell, check rect intersection directly.
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 3; ++b) {
      const Rect cell({Interval::Point(a), Interval::Point(b)});
      BitVector expect(wl.num_subscribers());
      for (std::size_t i = 0; i < wl.subscribers.size(); ++i)
        if (wl.subscribers[i].interest.intersects(cell)) expect.set(i);

      const std::int64_t id = grid.cell_of(Point{static_cast<double>(a),
                                                 static_cast<double>(b)});
      ASSERT_GE(id, 0);
      EXPECT_EQ(grid.cell_rect(id), cell);
      const int hyper = grid.hyper_cell_of(id);
      if (expect.none()) {
        EXPECT_EQ(hyper, -1);
      } else {
        ASSERT_GE(hyper, 0);
        EXPECT_EQ(grid.hyper_cells()[static_cast<std::size_t>(hyper)].members, expect);
      }
    }
  }
}

TEST(Grid, HyperCellsMergeIdenticalMembership) {
  const Workload wl = SmallWorkload();
  const auto pub = UniformPub(wl);
  const Grid grid(wl, *pub);

  // Membership patterns by hand:
  //   a∈{0,1},b∈{1,2} → {0}        (4 cells)
  //   a∈{0},b=0       → {0}        …same vector, merges with the above
  //   a=1,b=0         → {0,1}
  //   a=2,b=0         → {1}
  //   a=3,b=2         → {2}
  //   a∈{2,3} others  → {} (no hyper-cell)
  std::map<std::string, int> by_pattern;
  for (const HyperCell& hc : grid.hyper_cells())
    ++by_pattern[hc.members.to_string()];
  EXPECT_EQ(by_pattern.size(), grid.hyper_cells().size());  // all distinct
  EXPECT_EQ(grid.hyper_cells().size(), 4u);
  // {0} hyper-cell owns 5 lattice cells.
  for (const HyperCell& hc : grid.hyper_cells())
    if (hc.members.to_string() == "100") EXPECT_EQ(hc.cells.size(), 5u);
}

TEST(Grid, ProbabilitiesSumToCoveredMass) {
  const Workload wl = SmallWorkload();
  const auto pub = UniformPub(wl);
  const Grid grid(wl, *pub);
  // 8 of 12 cells have at least one subscriber (brute force above):
  // a∈{0,1} all b (6 cells) + (2,0) + (3,2).
  EXPECT_EQ(grid.num_occupied_cells(), 8);
  double total = 0;
  for (const HyperCell& hc : grid.hyper_cells()) total += hc.prob;
  EXPECT_NEAR(total, 8.0 / 12.0, 1e-12);
}

TEST(Grid, HyperCellsSortedByPopularity) {
  const Workload wl = SmallWorkload();
  const auto pub = UniformPub(wl);
  const Grid grid(wl, *pub);
  for (std::size_t i = 1; i < grid.hyper_cells().size(); ++i)
    EXPECT_GE(grid.hyper_cells()[i - 1].popularity, grid.hyper_cells()[i].popularity);
  for (const HyperCell& hc : grid.hyper_cells())
    EXPECT_DOUBLE_EQ(hc.popularity,
                     hc.prob * static_cast<double>(hc.members.count()));
}

TEST(Grid, CellOfRejectsOutOfDomain) {
  const Workload wl = SmallWorkload();
  const auto pub = UniformPub(wl);
  const Grid grid(wl, *pub);
  EXPECT_EQ(grid.cell_of(Point{-1.0, 0.0}), -1);
  EXPECT_EQ(grid.cell_of(Point{4.0, 0.0}), -1);
  EXPECT_EQ(grid.cell_of(Point{0.0, 3.0}), -1);
  EXPECT_GE(grid.cell_of(Point{3.0, 2.0}), 0);
}

TEST(Grid, CellRectRoundTripsAllCells) {
  const Workload wl = SmallWorkload();
  const auto pub = UniformPub(wl);
  const Grid grid(wl, *pub);
  for (int a = 0; a < 4; ++a)
    for (int b = 0; b < 3; ++b) {
      const Point p{static_cast<double>(a), static_cast<double>(b)};
      const std::int64_t id = grid.cell_of(p);
      EXPECT_TRUE(grid.cell_rect(id).contains(p));
    }
}

TEST(Grid, TopCellsTruncatesAndPreservesOrder) {
  const Workload wl = SmallWorkload();
  const auto pub = UniformPub(wl);
  const Grid grid(wl, *pub);
  const auto all = grid.top_cells(0);
  EXPECT_EQ(all.size(), grid.hyper_cells().size());
  const auto two = grid.top_cells(2);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0].members, &grid.hyper_cells()[0].members);
  EXPECT_EQ(two[1].members, &grid.hyper_cells()[1].members);
  const auto many = grid.top_cells(100);
  EXPECT_EQ(many.size(), grid.hyper_cells().size());
}

// Brute-force cross-check of the rasterization ranges against the
// Interval/Rect (lo, hi] semantics: for every endpoint combination —
// integer, half-integer and unbounded — GridCellsIntersecting must select
// exactly the values v whose unit cell (v−1, v] intersects the interval.
TEST(Grid, CellsIntersectingMatchesIntervalSemantics) {
  for (const int domain : {1, 2, 3, 5}) {
    std::vector<double> endpoints{-Interval::kInf, Interval::kInf};
    for (double v = -3.0; v <= domain + 2.0; v += 0.5) endpoints.push_back(v);
    for (const double lo : endpoints) {
      for (const double hi : endpoints) {
        const Interval iv(lo, hi);
        const GridValueRange r = GridCellsIntersecting(iv, domain);
        for (int v = 0; v < domain; ++v) {
          const bool expect = Interval::Point(v).intersects(iv);
          const bool got = v >= r.first && v <= r.last;
          EXPECT_EQ(got, expect)
              << "domain=" << domain << " iv=" << iv.to_string() << " v=" << v;
        }
      }
    }
  }
}

// No subscriber may be dropped from the cell holding its interval's lower
// boundary: for any event coordinate x the subscriber's interval contains,
// the cell of x (v = ceil(x), the (v−1, v] convention of Grid::cell_of)
// must fall inside the subscriber's rasterized range.
TEST(Grid, NoSubscriberDroppedAtIntervalBoundary) {
  for (const int domain : {1, 3, 6}) {
    std::vector<double> endpoints{-Interval::kInf, Interval::kInf};
    for (double v = -2.0; v <= domain + 1.0; v += 0.25) endpoints.push_back(v);
    for (const double lo : endpoints) {
      for (const double hi : endpoints) {
        const Interval iv(lo, hi);
        const GridValueRange r = GridCellsIntersecting(iv, domain);
        for (double x = -1.0; x <= domain - 1.0; x += 0.125) {
          if (!iv.contains(x)) continue;
          const int v = static_cast<int>(std::ceil(x));
          if (v < 0 || v >= domain) continue;
          EXPECT_TRUE(v >= r.first && v <= r.last)
              << "domain=" << domain << " iv=" << iv.to_string() << " x=" << x;
        }
      }
    }
  }
}

// Far-out-of-domain finite endpoints used to flow into unguarded
// double→int casts (undefined behaviour for values beyond int range); the
// clamped form must stay well-defined and exact.
TEST(Grid, CellsIntersectingHandlesExtremeEndpoints) {
  const int domain = 10;
  const GridValueRange below = GridCellsIntersecting(Interval(-2e18, -1e18), domain);
  EXPECT_GT(below.first, below.last);  // empty
  const GridValueRange above = GridCellsIntersecting(Interval(1e18, 2e18), domain);
  EXPECT_GT(above.first, above.last);  // empty
  const GridValueRange all = GridCellsIntersecting(Interval(-1e18, 1e18), domain);
  EXPECT_EQ(all.first, 0);
  EXPECT_EQ(all.last, domain - 1);
}

TEST(Grid, ClusterNeighborsMatchBruteForceAdjacency) {
  const Workload wl = SmallWorkload();
  const auto pub = UniformPub(wl);
  const Grid grid(wl, *pub);
  const std::size_t n = grid.hyper_cells().size();
  ASSERT_GT(n, 1u);

  // Brute force: two hyper cells are neighbors iff some pair of their
  // lattice cells is axis-adjacent.
  std::vector<std::set<int>> want(n);
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 3; ++b) {
      const int h = grid.hyper_cell_of(grid.cell_of(
          Point{static_cast<double>(a), static_cast<double>(b)}));
      if (h < 0) continue;
      const auto link = [&](int a2, int b2) {
        if (a2 >= 4 || b2 >= 3) return;
        const int h2 = grid.hyper_cell_of(grid.cell_of(
            Point{static_cast<double>(a2), static_cast<double>(b2)}));
        if (h2 < 0 || h2 == h) return;
        want[static_cast<std::size_t>(h)].insert(h2);
        want[static_cast<std::size_t>(h2)].insert(h);
      };
      link(a + 1, b);
      link(a, b + 1);
    }
  }

  const auto got = grid.cluster_neighbors(0);
  ASSERT_EQ(got.size(), n);
  for (std::size_t h = 0; h < n; ++h) {
    EXPECT_EQ(std::set<int>(got[h].begin(), got[h].end()), want[h]) << h;
    // Sorted and duplicate-free (the k-means closure relies on neither,
    // but the contract says so).
    EXPECT_TRUE(std::is_sorted(got[h].begin(), got[h].end()));
    EXPECT_EQ(std::adjacent_find(got[h].begin(), got[h].end()), got[h].end());
  }

  // Truncation: with top_n = 1 only hyper cell 0 is listed and it may only
  // reference ids below the cut.
  const auto top1 = grid.cluster_neighbors(1);
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_TRUE(top1[0].empty());
}

TEST(Grid, SubscriberOutsideDomainIgnored) {
  Workload wl;
  wl.space = EventSpace({{"a", 4}});
  Subscriber s;
  s.node = 0;
  s.interest = Rect({Interval(10, 20)});  // entirely outside
  wl.subscribers.push_back(s);
  const auto pub = UniformPub(wl);
  const Grid grid(wl, *pub);
  EXPECT_EQ(grid.num_occupied_cells(), 0);
  EXPECT_TRUE(grid.hyper_cells().empty());
}

// The walk reads pub.value_mass(d, v) for every dimension of the
// workload's space, so a model over another dimensionality is refused.
TEST(Grid, RejectsPublicationModelOfOtherDimensionality) {
  Workload wl;
  wl.space = EventSpace({{"a", 4}, {"b", 3}});
  wl.subscribers.push_back(Subscriber{0, Rect({Interval(0, 2), Interval(0, 1)})});
  Workload one_dim;
  one_dim.space = EventSpace({{"a", 4}});
  EXPECT_THROW(Grid(wl, *UniformPub(one_dim)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Oracle fuzz: Grid's column build against the per-subscriber box
// rasterization it replaced, kept here as the brute-force reference.

struct ReferenceGrid {
  std::vector<HyperCell> hyper_cells;  // decreasing popularity
  std::vector<int> hyper_of_cell;
  std::int64_t occupied_cells = 0;
};

// One BitVector per lattice cell; every subscriber sets its bit in each
// cell of its covered integer box; equal vectors merge in cell order; prob
// is summed per hyper-cell in cell order; a stable sort by popularity.
ReferenceGrid RasterizeReference(const Workload& wl, const PublicationModel& pub) {
  const std::size_t dims = wl.space.dims();
  std::vector<std::int64_t> strides(dims, 1);
  for (std::size_t d = dims - 1; d-- > 0;)
    strides[d] = strides[d + 1] * wl.space.dim(d + 1).domain_size;
  const std::int64_t lattice = strides[0] * wl.space.dim(0).domain_size;

  std::vector<BitVector> membership(static_cast<std::size_t>(lattice),
                                    BitVector(wl.num_subscribers()));
  std::vector<GridValueRange> range(dims);
  std::vector<int> coord(dims);
  for (std::size_t i = 0; i < wl.subscribers.size(); ++i) {
    bool empty = false;
    for (std::size_t d = 0; d < dims; ++d) {
      range[d] = GridCellsIntersecting(wl.subscribers[i].interest[d],
                                       wl.space.dim(d).domain_size);
      empty = empty || range[d].last < range[d].first;
    }
    if (empty) continue;
    for (std::size_t d = 0; d < dims; ++d) coord[d] = range[d].first;
    for (bool more = true; more;) {
      std::int64_t id = 0;
      for (std::size_t d = 0; d < dims; ++d) id += coord[d] * strides[d];
      membership[static_cast<std::size_t>(id)].set(i);
      more = false;
      for (std::size_t d = dims; d-- > 0;) {
        if (++coord[d] <= range[d].last) {
          more = true;
          break;
        }
        coord[d] = range[d].first;
      }
    }
  }

  ReferenceGrid ref;
  ref.hyper_of_cell.assign(static_cast<std::size_t>(lattice), -1);
  std::unordered_map<std::size_t, std::vector<int>> buckets;
  std::vector<HyperCell> unsorted;
  for (std::int64_t cell = 0; cell < lattice; ++cell) {
    const BitVector& vec = membership[static_cast<std::size_t>(cell)];
    if (vec.none()) continue;
    ++ref.occupied_cells;
    int hyper = -1;
    for (const int cand : buckets[vec.hash()])
      if (unsorted[static_cast<std::size_t>(cand)].members == vec) hyper = cand;
    if (hyper == -1) {
      hyper = static_cast<int>(unsorted.size());
      unsorted.push_back(HyperCell{vec, 0.0, 0.0, {}});
      buckets[vec.hash()].push_back(hyper);
    }
    unsorted[static_cast<std::size_t>(hyper)].cells.push_back(cell);
    ref.hyper_of_cell[static_cast<std::size_t>(cell)] = hyper;
  }
  for (HyperCell& hc : unsorted) {
    for (const std::int64_t cell : hc.cells) {
      std::vector<Interval> ivals;
      for (std::size_t d = 0; d < dims; ++d)
        ivals.push_back(Interval::Point(static_cast<int>(
            (cell / strides[d]) % wl.space.dim(d).domain_size)));
      hc.prob += pub.rect_mass(Rect(std::move(ivals)));
    }
    hc.popularity = hc.prob * static_cast<double>(hc.members.count());
  }

  std::vector<int> order(unsorted.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&unsorted](int a, int b) {
    return unsorted[static_cast<std::size_t>(a)].popularity >
           unsorted[static_cast<std::size_t>(b)].popularity;
  });
  std::vector<int> rank_of(order.size());
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    rank_of[static_cast<std::size_t>(order[rank])] = static_cast<int>(rank);
    ref.hyper_cells.push_back(unsorted[static_cast<std::size_t>(order[rank])]);
  }
  for (int& h : ref.hyper_of_cell)
    if (h != -1) h = rank_of[static_cast<std::size_t>(h)];
  return ref;
}

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// One endpoint drawn from the cases the build must agree on: integral,
// fractional, outside the domain on either side, and unbounded.
double RandomEndpoint(Rng& rng, int domain) {
  switch (rng.uniform_int(0, 5)) {
    case 0:
      return static_cast<double>(rng.uniform_int(-1, domain - 1));
    case 1:
      return static_cast<double>(rng.uniform_int(-2, domain)) +
             0.25 * static_cast<double>(rng.uniform_int(1, 3));
    case 2:
      return -static_cast<double>(rng.uniform_int(2, 40));
    case 3:
      return static_cast<double>(domain + rng.uniform_int(0, 40));
    case 4:
      return rng.bernoulli(0.5) ? -Interval::kInf : Interval::kInf;
    default:
      return static_cast<double>(rng.uniform_int(0, domain - 1)) - 0.5;
  }
}

Rect RandomInterest(Rng& rng, const EventSpace& space) {
  const std::size_t dims = space.dims();
  if (rng.uniform_int(0, 15) == 0)  // tombstone: GroupManager's removal rect
    return Rect(std::vector<Interval>(dims, Interval()));
  std::vector<Interval> ivals;
  for (std::size_t d = 0; d < dims; ++d) {
    const int domain = space.dim(d).domain_size;
    const auto kind = rng.uniform_int(0, 9);
    if (kind == 0) {
      ivals.push_back(Interval::All());
    } else if (kind <= 2) {
      double a = RandomEndpoint(rng, domain), b = RandomEndpoint(rng, domain);
      if (a > b) std::swap(a, b);
      ivals.emplace_back(a, b);  // may be empty when a == b
    } else {
      // A short integral window, the common stock-workload shape.
      const auto lo = rng.uniform_int(-1, domain - 1);
      ivals.emplace_back(static_cast<double>(lo),
                         static_cast<double>(lo + rng.uniform_int(0, 4)));
    }
  }
  return Rect(std::move(ivals));
}

std::unique_ptr<PublicationModel> RandomPub(Rng& rng, const EventSpace& space) {
  std::vector<Marginal1D> marginals;
  for (std::size_t d = 0; d < space.dims(); ++d) {
    const int n = space.dim(d).domain_size;
    if (rng.bernoulli(0.3)) {
      marginals.push_back(Marginal1D::UniformInt(n));
      continue;
    }
    std::vector<double> w(static_cast<std::size_t>(n));
    for (double& x : w) x = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 1.0);
    w[static_cast<std::size_t>(rng.uniform_int(0, n - 1))] = 1.0;  // nonzero total
    marginals.push_back(Marginal1D::Categorical(std::move(w)));
  }
  return std::make_unique<ProductPublicationModel>(space, std::move(marginals),
                                                   std::vector<NodeId>{0});
}

void ExpectGridMatchesReference(const Workload& wl, const PublicationModel& pub,
                                const std::string& label) {
  const Grid grid(wl, pub);
  const ReferenceGrid ref = RasterizeReference(wl, pub);
  ASSERT_EQ(grid.num_occupied_cells(), ref.occupied_cells) << label;
  ASSERT_EQ(grid.hyper_cells().size(), ref.hyper_cells.size()) << label;
  for (std::size_t h = 0; h < ref.hyper_cells.size(); ++h) {
    const HyperCell& got = grid.hyper_cells()[h];
    const HyperCell& want = ref.hyper_cells[h];
    ASSERT_EQ(got.members, want.members) << label << " hyper " << h;
    ASSERT_EQ(got.cells, want.cells) << label << " hyper " << h;
    ASSERT_EQ(Bits(got.prob), Bits(want.prob)) << label << " hyper " << h;
    ASSERT_EQ(Bits(got.popularity), Bits(want.popularity)) << label << " hyper " << h;
  }
  for (std::int64_t cell = 0; cell < grid.num_lattice_cells(); ++cell)
    ASSERT_EQ(grid.hyper_cell_of(cell),
              ref.hyper_of_cell[static_cast<std::size_t>(cell)])
        << label << " cell " << cell;
}

TEST(GridOracle, ColumnBuildMatchesBoxRasterization) {
  Rng rng(20261017);
  int cases = 0;
  for (const std::size_t subs : {0, 1, 63, 64, 65, 129, 1000}) {
    // Large populations get smaller lattices so the reference's
    // per-cell vectors stay cheap under ASan.
    const std::int64_t max_lattice = subs >= 1000 ? 3000 : 12000;
    for (int trial = 0; trial < 24; ++trial) {
      const auto dims = static_cast<std::size_t>(1 + trial % 5);
      std::vector<DimensionSpec> specs;
      std::int64_t lattice = 1;
      for (std::size_t d = 0; d < dims; ++d) {
        int n = static_cast<int>(rng.uniform_int(1, 25));
        while (n > 1 && lattice * n > max_lattice) n /= 2;
        lattice *= n;
        specs.push_back({"d" + std::to_string(d), n});
      }
      Workload wl;
      wl.space = EventSpace(std::move(specs));
      for (std::size_t i = 0; i < subs; ++i)
        wl.subscribers.push_back(
            Subscriber{static_cast<NodeId>(i), RandomInterest(rng, wl.space)});
      const auto pub = RandomPub(rng, wl.space);
      ExpectGridMatchesReference(
          wl, *pub,
          "subs=" + std::to_string(subs) + " trial=" + std::to_string(trial) +
              " space=" + wl.space.to_string());
      ++cases;
    }
  }
  EXPECT_EQ(cases, 168);
}

// Workloads with many identical and nested rects: every cell's vector
// repeats many times, so the hyper-cell table's probe chains and growth
// are exercised, and popularity ties exercise the stable order.
TEST(GridOracle, RepeatedRectsAndPopularityTiesMatchReference) {
  Rng rng(7);
  Workload wl;
  wl.space = EventSpace({{"a", 25}, {"b", 25}, {"c", 9}});
  for (int i = 0; i < 300; ++i) {
    std::vector<Interval> ivals;
    for (std::size_t d = 0; d < 3; ++d) {
      const int n = wl.space.dim(d).domain_size;
      const auto lo = rng.uniform_int(-1, n - 2);
      ivals.emplace_back(static_cast<double>(lo),
                         static_cast<double>(lo + 1 + rng.uniform_int(0, 2)));
    }
    const Rect r(std::move(ivals));
    for (int copies = static_cast<int>(rng.uniform_int(1, 3)); copies-- > 0;)
      wl.subscribers.push_back(
          Subscriber{static_cast<NodeId>(wl.subscribers.size()), r});
  }
  const auto uniform = UniformPub(wl);
  ExpectGridMatchesReference(wl, *uniform, "uniform");
  Rng pub_rng(8);
  const auto skewed = RandomPub(pub_rng, wl.space);
  ExpectGridMatchesReference(wl, *skewed, "skewed");
}

// bench_fleet's scenario: 1,000 stock subscribers on the 27,783-cell stock
// lattice.  Runs of equal vectors are common there, so the build's
// previous-cell fast path does much of the merging.
TEST(GridOracle, StockScenarioMatchesReference) {
  const Scenario sc = MakeStockScenario(1000, PublicationHotSpots::kOne, 91);
  ExpectGridMatchesReference(sc.workload, *sc.pub, "stock 1000");
}

}  // namespace
}  // namespace pubsub
