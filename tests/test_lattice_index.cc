// Lattice index: named boundary cases, and a seeded churn fuzz whose oracle
// is brute force — after every insert, erase or update, the stab at every
// lattice point (and at integers just outside the domain) equals the
// ascending Rect::contains set over the live rectangles clipped to the
// domain, a from-scratch build answers the same, and live() counts the
// non-empty clipped rectangles.
#include "index/lattice_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace pubsub {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

EventSpace Space(const std::vector<int>& sizes) {
  std::vector<DimensionSpec> dims;
  for (std::size_t d = 0; d < sizes.size(); ++d)
    dims.push_back({"a" + std::to_string(d), sizes[d]});
  return EventSpace(std::move(dims));
}

std::vector<int> Stab(const LatticeIndex& index, const Point& p) {
  std::vector<int> out;
  std::vector<std::uint64_t> tmp;
  index.stab(p, out, tmp);
  return out;
}

// One dimension of 10 values (0 .. 9), one subscriber per case.
std::vector<int> Values(const Interval& iv) {
  LatticeIndex index(Space({10}), 1);
  index.insert(0, Rect({iv}));
  std::vector<int> values;
  for (int v = 0; v < 10; ++v)
    if (!Stab(index, {static_cast<double>(v)}).empty()) values.push_back(v);
  return values;
}

TEST(LatticeIndex, IntegerBoundsAreOpenBelowClosedAbove) {
  EXPECT_EQ(Values(Interval(2, 5)), (std::vector<int>{3, 4, 5}));
}

TEST(LatticeIndex, HalfIntegerBoundsHoldTheIntegersBetween) {
  EXPECT_EQ(Values(Interval(2.5, 5.5)), (std::vector<int>{3, 4, 5}));
}

TEST(LatticeIndex, RangeWithoutAnIntegerHoldsNothingButStaysLive) {
  LatticeIndex index(Space({10}), 1);
  index.insert(0, Rect({Interval(2.2, 2.8)}));
  EXPECT_EQ(index.live(), 1u);
  for (int v = 0; v < 10; ++v)
    EXPECT_TRUE(Stab(index, {static_cast<double>(v)}).empty()) << v;
  index.erase(0, Rect({Interval(2.2, 2.8)}));
  EXPECT_EQ(index.live(), 0u);
}

TEST(LatticeIndex, UnboundedAndOutOfDomainBoundsClipToTheDomain) {
  EXPECT_EQ(Values(Interval::All()),
            (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(Values(Interval::AtMost(1)), (std::vector<int>{0, 1}));
  EXPECT_EQ(Values(Interval::GreaterThan(7)), (std::vector<int>{8, 9}));
  EXPECT_EQ(Values(Interval(-40, 0)), (std::vector<int>{0}));
  EXPECT_EQ(Values(Interval(8.5, 40)), (std::vector<int>{9}));

  LatticeIndex index(Space({10}), 3);
  index.insert(0, Rect({Interval(9, 40)}));   // clips to empty
  index.insert(1, Rect({Interval(-40, -1)}));  // clips to empty
  index.insert(2, Rect({Interval()}));         // a tombstone
  EXPECT_EQ(index.live(), 0u);
}

TEST(LatticeIndex, IntegersOutsideTheDomainMatchNothing) {
  LatticeIndex index(Space({4, 3}), 1);
  index.insert(0, Rect(2));  // the whole space
  EXPECT_EQ(Stab(index, {3, 2}), (std::vector<int>{0}));
  EXPECT_TRUE(Stab(index, {-1, 0}).empty());
  EXPECT_TRUE(Stab(index, {4, 0}).empty());
  EXPECT_TRUE(Stab(index, {0, 3}).empty());
  EXPECT_TRUE(Stab(index, {1e300, 0}).empty());
  std::uint64_t word = 0xdead;
  EXPECT_FALSE(index.stab({0, -7}, &word));
  EXPECT_EQ(word, 0xdeadu);  // nothing written
}

TEST(LatticeIndex, RowsWidenWithTheTableAndKeepTheirBits) {
  LatticeIndex index(Space({3, 2}), 0);
  EXPECT_EQ(index.row_words(), 0u);
  EXPECT_TRUE(Stab(index, {1, 1}).empty());
  index.insert(0, Rect(2));
  index.insert(130, Rect({Interval(0, 1), Interval(0, 1)}));
  EXPECT_EQ(index.slots(), 131u);
  EXPECT_EQ(index.row_words(), 3u);
  EXPECT_EQ(Stab(index, {1, 1}), (std::vector<int>{0, 130}));
  EXPECT_EQ(Stab(index, {0, 1}), (std::vector<int>{0}));
  index.erase(0, Rect(2));
  EXPECT_EQ(Stab(index, {1, 1}), (std::vector<int>{130}));
  EXPECT_EQ(index.live(), 1u);
}

TEST(LatticeIndex, RejectsMismatchedDimensionalityAndBadIds) {
  LatticeIndex index(Space({3, 2}), 2);
  EXPECT_THROW(index.insert(0, Rect(3)), std::invalid_argument);
  EXPECT_THROW(index.insert(-1, Rect(2)), std::invalid_argument);
  EXPECT_THROW(index.erase(2, Rect(2)), std::invalid_argument);
  std::vector<int> out;
  std::vector<std::uint64_t> tmp;
  EXPECT_THROW(index.stab({1}, out, tmp), std::invalid_argument);
}

TEST(LatticeIndex, LatticePointPredicate) {
  EXPECT_TRUE(EventSpace::is_lattice_coord(3));
  EXPECT_TRUE(EventSpace::is_lattice_coord(-4));
  EXPECT_TRUE(EventSpace::is_lattice_coord(1e300));
  EXPECT_FALSE(EventSpace::is_lattice_coord(2.5));
  EXPECT_FALSE(EventSpace::is_lattice_coord(kInf));
  EXPECT_FALSE(EventSpace::is_lattice_coord(-kInf));
  EXPECT_FALSE(
      EventSpace::is_lattice_coord(std::numeric_limits<double>::quiet_NaN()));
  const EventSpace space = Space({3, 2});
  EXPECT_NO_THROW(space.check_lattice_point({7, -1}, "test"));
  EXPECT_THROW(space.check_lattice_point({1, 0.5}, "test"),
               std::invalid_argument);
  EXPECT_THROW(space.check_lattice_point({1}, "test"), std::invalid_argument);
}

// ---- churn fuzz against brute force ----------------------------------------

struct FuzzParam {
  std::uint64_t seed;
  std::vector<int> sizes;
  int subscribers;
  int ops;
};

// One bound from the mix the fuzz draws: integer, half-integer, infinite or
// outside the domain.
double Bound(Rng& rng, int n) {
  switch (rng.uniform_int(0, 5)) {
    case 0:
      return -kInf;
    case 1:
      return kInf;
    case 2:
      return static_cast<double>(rng.uniform_int(-3, n + 2));  // may be outside
    case 3:
      return static_cast<double>(rng.uniform_int(-1, n)) + 0.5;
    case 4:
      return rng.uniform(-1.5, n + 0.5);
    default:
      return static_cast<double>(rng.uniform_int(-1, n - 1));
  }
}

Rect RandomInterest(Rng& rng, const std::vector<int>& sizes) {
  if (rng.uniform_int(0, 9) == 0)  // a tombstone-like empty rectangle
    return Rect(std::vector<Interval>(sizes.size(), Interval()));
  std::vector<Interval> ivals;
  for (const int n : sizes) {
    const double a = Bound(rng, n);
    const double b = Bound(rng, n);
    // Mostly ordered; sometimes reversed, which is empty.
    ivals.emplace_back(rng.uniform_int(0, 7) == 0 ? std::max(a, b)
                                                  : std::min(a, b),
                       rng.uniform_int(0, 7) == 0 ? std::min(a, b)
                                                  : std::max(a, b));
  }
  return Rect(std::move(ivals));
}

// Names the case in CTest output (the default prints the vector's heap
// pointer, which differs between runs).
void PrintTo(const FuzzParam& p, std::ostream* os) {
  *os << "seed " << p.seed << ", domain";
  for (const int n : p.sizes) *os << ' ' << n;
  *os << ", " << p.subscribers << " subscribers, " << p.ops << " ops";
}

class LatticeIndexFuzz : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(LatticeIndexFuzz, StabsMatchBruteForceAfterEveryOp) {
  const FuzzParam& param = GetParam();
  const EventSpace space = Space(param.sizes);
  const Rect domain = space.domain_rect();
  Rng rng(param.seed);

  // The table: one optional interest per slot (nullopt = never inserted).
  std::vector<std::optional<Rect>> table;
  LatticeIndex index(space, 0);
  for (int i = 0; i < param.subscribers; ++i) {
    table.push_back(RandomInterest(rng, param.sizes));
    index.insert(i, *table.back());
  }

  // Every lattice point plus integers one step outside each dimension.
  std::vector<Point> probes(1, Point());
  for (const int n : param.sizes) {
    std::vector<Point> next;
    for (const Point& p : probes)
      for (int v = -2; v <= n + 1; ++v) {
        Point q = p;
        q.push_back(static_cast<double>(v));
        next.push_back(std::move(q));
      }
    probes = std::move(next);
  }

  const auto check = [&](int op) {
    LatticeIndex fresh(space, table.size());
    std::vector<std::pair<int, Rect>> clipped;
    for (std::size_t i = 0; i < table.size(); ++i) {
      if (!table[i]) continue;
      fresh.insert(static_cast<int>(i), *table[i]);
      Rect c = table[i]->intersection(domain);
      if (!c.empty()) clipped.emplace_back(static_cast<int>(i), std::move(c));
    }
    ASSERT_EQ(index.live(), clipped.size()) << "op " << op;
    ASSERT_EQ(fresh.live(), clipped.size()) << "op " << op;
    for (const Point& p : probes) {
      std::vector<int> want;
      for (const auto& [id, rect] : clipped)
        if (rect.contains(p)) want.push_back(id);
      ASSERT_EQ(Stab(index, p), want) << "op " << op;
      ASSERT_EQ(Stab(fresh, p), want) << "op " << op;
    }
  };

  check(-1);
  for (int op = 0; op < param.ops; ++op) {
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(table.size()) - 1));
    switch (rng.uniform_int(0, 2)) {
      case 0:  // subscribe: a new slot, sometimes past a gap of unused ones
        table.resize(table.size() + static_cast<std::size_t>(
                                        rng.uniform_int(0, 9) == 0 ? 70 : 0));
        table.push_back(RandomInterest(rng, param.sizes));
        index.insert(static_cast<int>(table.size() - 1), *table.back());
        break;
      case 1:  // unsubscribe: the slot keeps an empty rectangle
        if (table[pick]) {
          index.erase(static_cast<int>(pick), *table[pick]);
          table[pick] = Rect(std::vector<Interval>(param.sizes.size(),
                                                   Interval()));
          index.insert(static_cast<int>(pick), *table[pick]);
        }
        break;
      default:  // update
        if (table[pick]) {
          index.erase(static_cast<int>(pick), *table[pick]);
          table[pick] = RandomInterest(rng, param.sizes);
          index.insert(static_cast<int>(pick), *table[pick]);
        }
    }
    check(op);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LatticeIndexFuzz,
    ::testing::Values(FuzzParam{1, {3, 5, 4}, 40, 300},
                      FuzzParam{2, {3, 5, 4}, 150, 200},
                      FuzzParam{3, {7}, 20, 400},
                      FuzzParam{4, {2, 3, 2, 4}, 60, 150},
                      FuzzParam{5, {1, 6}, 64, 300}),
    [](const ::testing::TestParamInfo<FuzzParam>& info) {
      std::string name = "seed" + std::to_string(info.param.seed);
      for (const int n : info.param.sizes) name += "_" + std::to_string(n);
      return name;
    });

}  // namespace
}  // namespace pubsub
