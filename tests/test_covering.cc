#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <vector>

#include "core/covering.h"
#include "index/slab_index.h"

namespace pubsub {
namespace {

using Delta = CoveringTable::Delta;

// Apply a covering delta to the backing index.  Ops are ordered; one churn
// call can add and then remove the same entry id (see core/covering.h).
void Apply(SlabIndex& slab, const Delta& delta) {
  for (const CoveringTable::IndexOp& op : delta) {
    if (op.kind == CoveringTable::IndexOp::kAdd)
      slab.insert(op.rect, op.entry);
    else
      slab.erase(op.entry);
  }
}

// Full match through the covering pipeline: stab indexed entries, expand
// each hit, canonicalize by sorting (the broker scatter does this).
std::vector<SubscriberId> Match(const SlabIndex& slab,
                                const CoveringTable& table, const Point& p) {
  std::vector<int> hits;
  std::vector<std::uint64_t> tmp;
  slab.stab(p, hits, tmp);
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
// never touch the backing index.

TEST(Covering, EqualRectsShareOneEntryWithRefcount) {
  CoveringTable t;
  Delta d;
  t.subscribe(0, R1(0, 10), d);
  EXPECT_EQ(d.size(), 1u);  // first distinct rect: one index add
  EXPECT_EQ(d[0].kind, CoveringTable::IndexOp::kAdd);
  for (SubscriberId s = 1; s < 100; ++s) {
    d.clear();
    t.subscribe(s, R1(0, 10), d);
    EXPECT_TRUE(d.empty()) << "duplicate rect must not touch the index";
  }
  EXPECT_EQ(t.subscriber_count(), 100u);
  EXPECT_EQ(t.entry_count(), 1u);
  EXPECT_EQ(t.indexed_count(), 1u);
  EXPECT_EQ(t.covered_subscriber_count(), 0u);

  // Riders leave one by one; the entry (and the index) survive until the
  // last reference drops.
  for (SubscriberId s = 0; s < 99; ++s) {
    d.clear();
    t.unsubscribe(s, d);
    EXPECT_TRUE(d.empty());
  }
  EXPECT_EQ(t.entry_count(), 1u);
  d.clear();
  t.unsubscribe(99, d);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].kind, CoveringTable::IndexOp::kRemove);
  EXPECT_EQ(t.entry_count(), 0u);
  EXPECT_EQ(t.subscriber_count(), 0u);
}

TEST(Covering, CoveredChildNeverReachesTheIndex) {
  CoveringTable t;
  Delta d;
  t.subscribe(0, R2(0, 10, 0, 10), d);
  d.clear();
  t.subscribe(1, R2(2, 5, 2, 5), d);  // inside sub 0's rect
  EXPECT_TRUE(d.empty()) << "covered entry must not be indexed";
  EXPECT_EQ(t.entry_count(), 2u);
  EXPECT_EQ(t.indexed_count(), 1u);
  EXPECT_EQ(t.covered_subscriber_count(), 1u);
  EXPECT_TRUE(t.check_invariants());
}

TEST(Covering, PromotionDemotesNowCoveredEntries) {
  CoveringTable t;
  Delta d;
  t.subscribe(0, R2(2, 5, 2, 5), d);
  t.subscribe(1, R2(6, 9, 6, 9), d);
  d.clear();
  // A rect containing both: the newcomer is indexed and both old entries
  // demote — the delta removes them in the same ordered op list.
  t.subscribe(2, R2(0, 10, 0, 10), d);
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(d[0].kind, CoveringTable::IndexOp::kAdd);
  EXPECT_EQ(d[1].kind, CoveringTable::IndexOp::kRemove);
  EXPECT_EQ(d[2].kind, CoveringTable::IndexOp::kRemove);
  EXPECT_EQ(t.indexed_count(), 1u);
  EXPECT_EQ(t.entry_count(), 3u);
  EXPECT_EQ(t.covered_subscriber_count(), 2u);
  EXPECT_TRUE(t.check_invariants());
}

TEST(Covering, IndexedDeathRehomesChildren) {
  CoveringTable t;
  Delta d;
  t.subscribe(0, R2(0, 10, 0, 10), d);   // parent
  t.subscribe(1, R2(1, 4, 1, 4), d);     // child A
  t.subscribe(2, R2(2, 3, 2, 3), d);     // child B (inside A too)
  d.clear();
  t.unsubscribe(0, d);
  // Parent leaves: A promotes (it is maximal among survivors) and B
  // re-homes under A rather than being indexed.
  EXPECT_EQ(t.entry_count(), 2u);
  EXPECT_EQ(t.indexed_count(), 1u);
  EXPECT_EQ(t.covered_subscriber_count(), 1u);
  EXPECT_TRUE(t.check_invariants());
  // Matching still exact through the backing index.
  SlabIndex slab;
  for (const auto& [rect, id] : t.indexed_entries()) slab.insert(rect, id);
  EXPECT_EQ(Match(slab, t, Point{2.5, 2.5}),
            (std::vector<SubscriberId>{1, 2}));
  EXPECT_EQ(Match(slab, t, Point{3.5, 3.5}), (std::vector<SubscriberId>{1}));
  EXPECT_TRUE(Match(slab, t, Point{8.0, 8.0}).empty());
}

TEST(Covering, UpdateIsNoOpWhenRectUnchanged) {
  CoveringTable t;
  Delta d;
  t.subscribe(0, R1(0, 10), d);
  d.clear();
  t.update(0, R1(0, 10), d);
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(t.entry_count(), 1u);
  // A real change moves the rider to a fresh entry.
  t.update(0, R1(5, 20), d);
  EXPECT_FALSE(d.empty());
  EXPECT_EQ(t.entry_count(), 1u);
  EXPECT_TRUE(t.check_invariants());
}

TEST(Covering, ChurnContractErrors) {
  CoveringTable t;
  Delta d;
  t.subscribe(3, R1(0, 1), d);
  EXPECT_THROW(t.subscribe(3, R1(0, 2), d), std::invalid_argument);
  EXPECT_THROW(t.subscribe(4, Rect({Interval()}), d), std::invalid_argument);
  EXPECT_THROW(t.subscribe(4, R2(0, 1, 0, 1), d), std::invalid_argument);
  EXPECT_THROW(t.unsubscribe(9, d), std::out_of_range);
  EXPECT_THROW(t.unsubscribe(-1, d), std::out_of_range);
  EXPECT_THROW(t.update(9, R1(0, 1), d), std::out_of_range);
  // The failed calls left no partial state behind.
  EXPECT_EQ(t.subscriber_count(), 1u);
  EXPECT_TRUE(t.check_invariants());
}

// --- randomized churn: delta stream keeps a SlabIndex exact ---------------
// The pipeline under test is exactly the broker's: covering table in front,
// slab index behind, every delta applied in order.  The oracle is the plain
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
  SlabIndex slab;
  Delta delta;
  std::map<SubscriberId, Rect> oracle;

  for (int op = 0; op < param.ops; ++op) {
    const SubscriberId s = static_cast<SubscriberId>(rng() % kSubSpace);
    delta.clear();
    switch (rng() % 3) {
      case 0:
        if (!table.contains(s)) {
          const Rect r = RandRect(rng, param.dims, kDomain);
          table.subscribe(s, r, delta);
          oracle[s] = r;
        }
        break;
      case 1:
        if (table.contains(s)) {
          table.unsubscribe(s, delta);
          oracle.erase(s);
        }
        break;
      default:
        if (table.contains(s)) {
          const Rect r = RandRect(rng, param.dims, kDomain);
          table.update(s, r, delta);
          oracle[s] = r;
        }
        break;
    }
    Apply(slab, delta);

    ASSERT_TRUE(table.check_invariants()) << "op " << op;
    ASSERT_EQ(slab.size(), table.indexed_count()) << "op " << op;
    ASSERT_EQ(table.subscriber_count(), oracle.size());

    for (int q = 0; q < 4; ++q) {
      Point p;
      for (int d = 0; d < param.dims; ++d)
        p.push_back(static_cast<double>(rng() % kDomain) -
                    (rng() % 2 == 0 ? 0.0 : 0.5));
      std::vector<SubscriberId> expect;
      for (const auto& [sub, rect] : oracle)
        if (rect.contains(p)) expect.push_back(sub);
      ASSERT_EQ(Match(slab, table, p), expect) << "op " << op;
    }
  }

  // Drain and confirm the index empties with the table.
  for (const auto& [sub, rect] : std::map<SubscriberId, Rect>(oracle)) {
    delta.clear();
    table.unsubscribe(sub, delta);
    Apply(slab, delta);
  }
  EXPECT_EQ(table.subscriber_count(), 0u);
  EXPECT_EQ(table.entry_count(), 0u);
  EXPECT_EQ(slab.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CoveringFuzz,
                         ::testing::Values(FuzzParam{21, 1, 400},
                                           FuzzParam{22, 2, 400},
                                           FuzzParam{23, 3, 250},
                                           FuzzParam{24, 2, 800}));

}  // namespace
}  // namespace pubsub
