#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <vector>

#include "core/covering.h"

namespace pubsub {
namespace {

// Full match through the covering table: stab indexed entries, expand each
// hit, canonicalize by sorting (the broker scatter does this).
std::vector<SubscriberId> Match(const CoveringTable& table, const Point& p) {
  std::vector<int> hits;
  std::vector<std::uint64_t> tmp;
  table.stab(p, hits, tmp);
  std::vector<SubscriberId> subs;
  for (const int e : hits) table.expand(e, p, subs);
  std::sort(subs.begin(), subs.end());
  return subs;
}

Rect R1(double lo, double hi) { return Rect({Interval(lo, hi)}); }
Rect R2(double xlo, double xhi, double ylo, double yhi) {
  return Rect({Interval(xlo, xhi), Interval(ylo, yhi)});
}

// --- refcount dedup: entries grow with DISTINCT interest -----------------
// The acceptance criterion of ISSUE 6: a million subscribers sharing one
// rectangle must cost one index entry; churn on a known rectangle must
// never touch the index.

TEST(Covering, EqualRectsShareOneEntryWithRefcount) {
  CoveringTable t;
  t.subscribe(0, R1(0, 10));
  EXPECT_EQ(t.index().size(), 1u);  // first distinct rect: one index entry
  const std::uint64_t splices = t.index().spliced_endpoints();
  for (SubscriberId s = 1; s < 100; ++s) {
    t.subscribe(s, R1(0, 10));
    EXPECT_EQ(t.index().size(), 1u);
    EXPECT_EQ(t.index().spliced_endpoints(), splices)
        << "duplicate rect must not touch the index";
  }
  EXPECT_EQ(t.subscriber_count(), 100u);
  EXPECT_EQ(t.entry_count(), 1u);
  EXPECT_EQ(t.indexed_count(), 1u);
  EXPECT_EQ(t.covered_subscriber_count(), 0u);

  // Riders leave one by one; the entry (and the index) survive until the
  // last reference drops.
  for (SubscriberId s = 0; s < 99; ++s) {
    t.unsubscribe(s);
    EXPECT_EQ(t.index().size(), 1u);
    EXPECT_EQ(t.index().spliced_endpoints(), splices);
  }
  EXPECT_EQ(t.entry_count(), 1u);
  t.unsubscribe(99);
  EXPECT_EQ(t.index().size(), 0u);
  EXPECT_EQ(t.entry_count(), 0u);
  EXPECT_EQ(t.subscriber_count(), 0u);
}

TEST(Covering, CoveredChildNeverReachesTheIndex) {
  CoveringTable t;
  t.subscribe(0, R2(0, 10, 0, 10));
  const std::uint64_t splices = t.index().spliced_endpoints();
  t.subscribe(1, R2(2, 5, 2, 5));  // inside sub 0's rect
  EXPECT_EQ(t.index().size(), 1u);
  EXPECT_EQ(t.index().spliced_endpoints(), splices)
      << "covered entry must not be indexed";
  EXPECT_EQ(t.entry_count(), 2u);
  EXPECT_EQ(t.indexed_count(), 1u);
  EXPECT_EQ(t.covered_subscriber_count(), 1u);
  EXPECT_TRUE(t.check_invariants());
}

TEST(Covering, PromotionDemotesNowCoveredEntries) {
  CoveringTable t;
  t.subscribe(0, R2(2, 5, 2, 5));
  t.subscribe(1, R2(6, 9, 6, 9));
  EXPECT_EQ(t.indexed_count(), 2u);
  // A rect containing both: the newcomer is indexed and both old entries
  // demote, leaving it the only entry in the index.
  t.subscribe(2, R2(0, 10, 0, 10));
  EXPECT_EQ(t.indexed_count(), 1u);
  EXPECT_EQ(t.index().size(), 1u);
  EXPECT_EQ(Match(t, Point{3.0, 3.0}), (std::vector<SubscriberId>{0, 2}));
  EXPECT_EQ(Match(t, Point{7.0, 7.0}), (std::vector<SubscriberId>{1, 2}));
  EXPECT_EQ(t.entry_count(), 3u);
  EXPECT_EQ(t.covered_subscriber_count(), 2u);
  EXPECT_TRUE(t.check_invariants());
}

TEST(Covering, CompactIndexDropsDeadEndpointsAndKeepsMatches) {
  CoveringTable t;
  t.subscribe(0, R2(2, 5, 2, 5));
  t.subscribe(1, R2(6, 9, 6, 9));
  t.subscribe(2, R2(0, 10, 0, 10));  // demotes both: 2,5,6,9 die per axis
  EXPECT_EQ(t.index().dead_endpoints(), 8u);
  t.compact_index();
  EXPECT_EQ(t.index().dead_endpoints(), 0u);
  EXPECT_EQ(t.index().endpoint_count(), 4u);
  EXPECT_TRUE(t.check_invariants());
  EXPECT_EQ(Match(t, Point{3.0, 3.0}), (std::vector<SubscriberId>{0, 2}));
  EXPECT_EQ(Match(t, Point{7.0, 7.0}), (std::vector<SubscriberId>{1, 2}));
  // Churn goes on against the rebuilt index, entry ids past its bulk-built
  // universe included.
  t.unsubscribe(2);  // both children promote
  t.subscribe(3, R2(20, 30, 20, 30));
  t.subscribe(4, R2(40, 50, 40, 50));
  EXPECT_EQ(Match(t, Point{3.0, 3.0}), (std::vector<SubscriberId>{0}));
  EXPECT_EQ(Match(t, Point{25.0, 25.0}), (std::vector<SubscriberId>{3}));
  EXPECT_EQ(Match(t, Point{45.0, 45.0}), (std::vector<SubscriberId>{4}));
  EXPECT_TRUE(t.check_invariants());
}

TEST(Covering, IndexedDeathRehomesChildren) {
  CoveringTable t;
  t.subscribe(0, R2(0, 10, 0, 10));   // parent
  t.subscribe(1, R2(1, 4, 1, 4));     // child A
  t.subscribe(2, R2(2, 3, 2, 3));     // child B (inside A too)
  EXPECT_EQ(t.indexed_count(), 1u);
  t.unsubscribe(0);
  // Parent leaves: A promotes (it is maximal among survivors) and B
  // re-homes under A rather than being indexed.
  EXPECT_EQ(t.entry_count(), 2u);
  EXPECT_EQ(t.indexed_count(), 1u);
  EXPECT_EQ(t.covered_subscriber_count(), 1u);
  EXPECT_TRUE(t.check_invariants());
  // Matching still exact through the table's index.
  EXPECT_EQ(t.index().size(), 1u);
  EXPECT_EQ(Match(t, Point{2.5, 2.5}), (std::vector<SubscriberId>{1, 2}));
  EXPECT_EQ(Match(t, Point{3.5, 3.5}), (std::vector<SubscriberId>{1}));
  EXPECT_TRUE(Match(t, Point{8.0, 8.0}).empty());
}

TEST(Covering, UpdateIsNoOpWhenRectUnchanged) {
  CoveringTable t;
  t.subscribe(0, R1(0, 10));
  const std::uint64_t splices = t.index().spliced_endpoints();
  t.update(0, R1(0, 10));
  EXPECT_EQ(t.index().spliced_endpoints(), splices);
  EXPECT_EQ(t.index().dead_endpoints(), 0u);
  EXPECT_EQ(t.entry_count(), 1u);
  // A real change moves the rider to a fresh entry.
  t.update(0, R1(5, 20));
  EXPECT_GT(t.index().spliced_endpoints(), splices);
  EXPECT_EQ(t.entry_count(), 1u);
  EXPECT_EQ(Match(t, Point{15.0}), (std::vector<SubscriberId>{0}));
  EXPECT_TRUE(Match(t, Point{2.0}).empty());
  EXPECT_TRUE(t.check_invariants());
}

TEST(Covering, ChurnContractErrors) {
  CoveringTable t;
  t.subscribe(3, R1(0, 1));
  EXPECT_THROW(t.subscribe(3, R1(0, 2)), std::invalid_argument);
  EXPECT_THROW(t.subscribe(4, Rect({Interval()})), std::invalid_argument);
  EXPECT_THROW(t.subscribe(4, R2(0, 1, 0, 1)), std::invalid_argument);
  EXPECT_THROW(t.unsubscribe(9), std::out_of_range);
  EXPECT_THROW(t.unsubscribe(-1), std::out_of_range);
  EXPECT_THROW(t.update(9, R1(0, 1)), std::out_of_range);
  // The failed calls left no partial state behind.
  EXPECT_EQ(t.subscriber_count(), 1u);
  EXPECT_TRUE(t.check_invariants());
}

// --- randomized churn: the table's index stays exact ---------------------
// The pipeline under test is exactly the broker's: churn into the covering
// table, stab and expand through it.  The oracle is the plain
// per-subscriber rectangle set.

struct FuzzParam {
  int seed;
  int dims;
  int ops;
};

class CoveringFuzz : public ::testing::TestWithParam<FuzzParam> {};

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

TEST_P(CoveringFuzz, DeltaStreamMatchesSubscriberOracle) {
  const FuzzParam param = GetParam();
  std::mt19937_64 rng(static_cast<std::uint64_t>(param.seed));
  constexpr int kDomain = 10;  // small: forces dedup, nesting, promotion
  constexpr int kSubSpace = 64;

  CoveringTable table;
  std::map<SubscriberId, Rect> oracle;

  for (int op = 0; op < param.ops; ++op) {
    const SubscriberId s = static_cast<SubscriberId>(rng() % kSubSpace);
    switch (rng() % 3) {
      case 0:
        if (!table.contains(s)) {
          const Rect r = RandRect(rng, param.dims, kDomain);
          table.subscribe(s, r);
          oracle[s] = r;
        }
        break;
      case 1:
        if (table.contains(s)) {
          table.unsubscribe(s);
          oracle.erase(s);
        }
        break;
      default:
        if (table.contains(s)) {
          const Rect r = RandRect(rng, param.dims, kDomain);
          table.update(s, r);
          oracle[s] = r;
        }
        break;
    }

    ASSERT_TRUE(table.check_invariants()) << "op " << op;
    ASSERT_EQ(table.index().size(), table.indexed_count()) << "op " << op;
    ASSERT_EQ(table.subscriber_count(), oracle.size());

    for (int q = 0; q < 4; ++q) {
      Point p;
      for (int d = 0; d < param.dims; ++d)
        p.push_back(static_cast<double>(rng() % kDomain) -
                    (rng() % 2 == 0 ? 0.0 : 0.5));
      std::vector<SubscriberId> expect;
      for (const auto& [sub, rect] : oracle)
        if (rect.contains(p)) expect.push_back(sub);
      ASSERT_EQ(Match(table, p), expect) << "op " << op;
    }
  }

  // Drain and confirm the index empties with the table.
  for (const auto& [sub, rect] : std::map<SubscriberId, Rect>(oracle))
    table.unsubscribe(sub);
  EXPECT_EQ(table.subscriber_count(), 0u);
  EXPECT_EQ(table.entry_count(), 0u);
  EXPECT_EQ(table.index().size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CoveringFuzz,
                         ::testing::Values(FuzzParam{21, 1, 400},
                                           FuzzParam{22, 2, 400},
                                           FuzzParam{23, 3, 250},
                                           FuzzParam{24, 2, 800},
                                           FuzzParam{25, 4, 800}));

}  // namespace
}  // namespace pubsub
