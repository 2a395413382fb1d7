#include "core/matching.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/kmeans.h"
#include "core/noloss.h"
#include "workload/publication_model.h"

namespace pubsub {
namespace {

Workload TwoClusterWorkload() {
  // 1-D space: subscribers 0,1 care about the low half, 2,3 about the high
  // half; subscriber 4 spans everything.
  Workload wl;
  wl.space = EventSpace({{"x", 20}});
  auto add = [&wl](double lo, double hi) {
    Subscriber s;
    s.node = static_cast<NodeId>(wl.subscribers.size());
    s.interest = Rect({Interval(lo, hi)});
    wl.subscribers.push_back(std::move(s));
  };
  add(-1, 8);
  add(-1, 9);
  add(10, 19);
  add(11, 19);
  add(-1, 19);
  return wl;
}

std::unique_ptr<PublicationModel> UniformPub(const Workload& wl) {
  std::vector<Marginal1D> m;
  for (std::size_t d = 0; d < wl.space.dims(); ++d)
    m.push_back(Marginal1D::UniformInt(wl.space.dim(d).domain_size));
  return std::make_unique<ProductPublicationModel>(wl.space, std::move(m),
                                                   std::vector<NodeId>{0});
}

std::vector<SubscriberId> Interested(const Workload& wl, const Point& p) {
  std::vector<SubscriberId> out;
  for (std::size_t i = 0; i < wl.subscribers.size(); ++i)
    if (wl.subscribers[i].interest.contains(p)) out.push_back(static_cast<int>(i));
  return out;
}

// MatchDecision's spans have no operator==; materialize for EXPECT_EQ.
std::vector<SubscriberId> ToVec(std::span<const SubscriberId> s) {
  return {s.begin(), s.end()};
}

class GridMatcherTest : public ::testing::Test {
 protected:
  GridMatcherTest()
      : wl_(TwoClusterWorkload()), pub_(UniformPub(wl_)), grid_(wl_, *pub_) {}

  Workload wl_;
  std::unique_ptr<PublicationModel> pub_;
  Grid grid_;
};

TEST_F(GridMatcherTest, GroupAlwaysSupersetOfInterested) {
  const auto cells = grid_.top_cells(0);
  const Assignment assignment = KMeansCluster(cells, 2, {}).assignment;
  const GridMatcher matcher(grid_, assignment, 2);
  for (int x = 0; x < 20; ++x) {
    const Point p{static_cast<double>(x)};
    const auto interested = Interested(wl_, p);
    const MatchDecision d = matcher.match(p, interested);
    if (d.group_id >= 0) {
      for (const SubscriberId s : interested)
        EXPECT_NE(std::find(d.group_members.begin(), d.group_members.end(), s),
                  d.group_members.end())
            << "x=" << x << " sub=" << s;
      EXPECT_TRUE(d.unicast_targets.empty());
    } else {
      EXPECT_EQ(ToVec(d.unicast_targets), interested);
    }
  }
}

TEST_F(GridMatcherTest, UnfedCellsFallBackToUnicast) {
  // Cluster only the single most popular hyper-cell; events in other cells
  // must be unicast.
  const auto cells = grid_.top_cells(1);
  const Assignment assignment = {0};
  const GridMatcher matcher(grid_, assignment, 1);
  int unicast = 0, multicast = 0;
  for (int x = 0; x < 20; ++x) {
    const Point p{static_cast<double>(x)};
    const MatchDecision d = matcher.match(p, Interested(wl_, p));
    (d.group_id >= 0 ? multicast : unicast)++;
  }
  EXPECT_GT(unicast, 0);
  EXPECT_GT(multicast, 0);
}

TEST_F(GridMatcherTest, ThresholdForcesUnicastWhenInterestSparse) {
  const auto cells = grid_.top_cells(0);
  const Assignment assignment = KMeansCluster(cells, 1, {}).assignment;
  // One big group of all 5 subscribers; a threshold of 0.9 can only be met
  // when ≥ 4.5 of them are interested — never true at the edges.
  const GridMatcher all_in(grid_, assignment, 1, 0.0);
  const GridMatcher strict(grid_, assignment, 1, 0.9);
  const Point p{0.0};
  const auto interested = Interested(wl_, p);  // subs 0, 1, 4
  EXPECT_GE(all_in.match(p, interested).group_id, 0);
  const MatchDecision d = strict.match(p, interested);
  EXPECT_EQ(d.group_id, -1);
  EXPECT_EQ(ToVec(d.unicast_targets), interested);
}

TEST_F(GridMatcherTest, EventOutsideDomainUnicasts) {
  const auto cells = grid_.top_cells(0);
  const GridMatcher matcher(grid_, KMeansCluster(cells, 2, {}).assignment, 2);
  const Point p{25.0};
  const MatchDecision d = matcher.match(p, {});
  EXPECT_EQ(d.group_id, -1);
  EXPECT_TRUE(d.unicast_targets.empty());
}

TEST_F(GridMatcherTest, RejectsBadAssignments) {
  const auto cells = grid_.top_cells(0);
  Assignment too_big(grid_.hyper_cells().size() + 5, 0);
  EXPECT_THROW(GridMatcher(grid_, too_big, 1), std::invalid_argument);
  Assignment bad_group(cells.size(), 7);
  EXPECT_THROW(GridMatcher(grid_, bad_group, 2), std::invalid_argument);
}

TEST(NoLossMatcherTest, ZeroWasteOnEveryMatchedEvent) {
  const Workload wl = TwoClusterWorkload();
  const auto pub = UniformPub(wl);
  const NoLossResult result = NoLossCluster(wl, *pub);
  const NoLossMatcher matcher(result, 4);

  for (int x = 0; x < 20; ++x) {
    const Point p{static_cast<double>(x)};
    const auto interested = Interested(wl, p);
    const MatchDecision d = matcher.match(p, interested);
    if (d.group_id < 0) {
      EXPECT_EQ(ToVec(d.unicast_targets), interested);
      continue;
    }
    // No-loss property: every group member is interested.
    for (const SubscriberId m : d.group_members)
      EXPECT_NE(std::find(interested.begin(), interested.end(), m), interested.end())
          << "x=" << x;
    // Coverage: group ∪ unicast = interested exactly.
    std::vector<SubscriberId> covered(d.group_members.begin(), d.group_members.end());
    covered.insert(covered.end(), d.unicast_targets.begin(), d.unicast_targets.end());
    std::sort(covered.begin(), covered.end());
    EXPECT_EQ(covered, interested);
  }
}

TEST(NoLossMatcherTest, WeightModePicksHeaviestContainingArea) {
  const Workload wl = TwoClusterWorkload();
  const auto pub = UniformPub(wl);
  const NoLossResult result = NoLossCluster(wl, *pub);
  NoLossMatcherOptions paper_literal;
  paper_literal.selection = NoLossMatcherOptions::Selection::kWeight;
  paper_literal.pick = NoLossMatcherOptions::Pick::kWeight;
  const NoLossMatcher matcher(result, result.groups.size(), paper_literal);

  for (int x = 0; x < 20; ++x) {
    const Point p{static_cast<double>(x)};
    const MatchDecision d = matcher.match(p, Interested(wl, p));
    if (d.group_id < 0) continue;
    const double picked = matcher.group(d.group_id).weight;
    for (int g = 0; g < matcher.num_groups(); ++g)
      if (matcher.group(g).rect.contains(p)) EXPECT_GE(picked, matcher.group(g).weight);
  }
}

TEST(NoLossMatcherTest, DefaultModePicksDensestContainingArea) {
  const Workload wl = TwoClusterWorkload();
  const auto pub = UniformPub(wl);
  const NoLossResult result = NoLossCluster(wl, *pub);
  const NoLossMatcher matcher(result, result.groups.size());

  for (int x = 0; x < 20; ++x) {
    const Point p{static_cast<double>(x)};
    const MatchDecision d = matcher.match(p, Interested(wl, p));
    if (d.group_id < 0) continue;
    const std::size_t picked = matcher.group(d.group_id).subscribers.count();
    for (int g = 0; g < matcher.num_groups(); ++g)
      if (matcher.group(g).rect.contains(p))
        EXPECT_GE(picked, matcher.group(g).subscribers.count());
  }
}

TEST(NoLossMatcherTest, SavingsSelectionPrefersDenseAreas) {
  const Workload wl = TwoClusterWorkload();
  const auto pub = UniformPub(wl);
  const NoLossResult result = NoLossCluster(wl, *pub);
  const NoLossMatcher matcher(result, 2);
  // Selected groups must be the two highest-savings areas of the pool.
  double worst_selected = 1e18;
  for (int g = 0; g < matcher.num_groups(); ++g)
    worst_selected = std::min(worst_selected, matcher.group(g).savings());
  int better_than_worst = 0;
  for (const NoLossGroup& g : result.groups)
    if (g.savings() > worst_selected + 1e-12) ++better_than_worst;
  EXPECT_LT(better_than_worst, matcher.num_groups());
}

TEST(NoLossMatcherTest, WeightSelectionSortsUnsortedPool) {
  // Regression: kWeight selection used to assume the candidate pool was
  // already weight-sorted and silently took the first K entries, which is
  // wrong for any caller that hands the matcher a hand-built or re-ranked
  // pool.  Build a deliberately unsorted pool and require the true top-K.
  auto make_group = [](double lo, double hi, double mass, double weight) {
    NoLossGroup g;
    g.rect = Rect({Interval(lo, hi)});
    g.subscribers = BitVector(3);
    g.subscribers.set(0);
    g.mass = mass;
    g.weight = weight;
    return g;
  };
  NoLossResult pool;
  pool.groups.push_back(make_group(-1, 5, 0.3, 2.0));
  pool.groups.push_back(make_group(5, 12, 0.9, 9.0));
  pool.groups.push_back(make_group(12, 19, 0.5, 5.0));

  NoLossMatcherOptions by_weight;
  by_weight.selection = NoLossMatcherOptions::Selection::kWeight;
  const NoLossMatcher matcher(pool, 2, by_weight);
  ASSERT_EQ(matcher.num_groups(), 2);
  std::vector<double> weights;
  for (int g = 0; g < matcher.num_groups(); ++g)
    weights.push_back(matcher.group(g).weight);
  std::sort(weights.begin(), weights.end());
  EXPECT_EQ(weights, (std::vector<double>{5.0, 9.0}));

  // Savings selection on the same unsorted pool: savings = weight − mass
  // ranks 8.1 > 4.5 > 1.7, so the same two areas must win there too.
  const NoLossMatcher by_savings(pool, 2);
  double worst = 1e18;
  for (int g = 0; g < by_savings.num_groups(); ++g)
    worst = std::min(worst, by_savings.group(g).savings());
  EXPECT_GT(worst, 4.0);
}

TEST(NoLossMatcherTest, TiesGoToTheHigherRankedArea) {
  // Two areas hold the probe with equal member counts and equal weights;
  // savings rank (3, 9] first.  The lower-ranked (1, 6] has the smaller
  // centre, so a packed R-tree visits it first: the pick must follow the
  // rank (the paper's list A), not an index's traversal order.
  auto make_group = [](double lo, double hi, double mass,
                       std::initializer_list<std::size_t> members) {
    NoLossGroup g;
    g.rect = Rect({Interval(lo, hi)});
    g.subscribers = BitVector(3);
    for (const std::size_t m : members) g.subscribers.set(m);
    g.mass = mass;
    g.weight = 1.2;
    return g;
  };
  NoLossResult pool;
  pool.groups.push_back(make_group(1, 6, 0.6, {1, 2}));  // savings 0.6
  pool.groups.push_back(make_group(3, 9, 0.4, {0, 1}));  // savings 0.8

  for (const auto pick : {NoLossMatcherOptions::Pick::kMembers,
                          NoLossMatcherOptions::Pick::kWeight}) {
    NoLossMatcherOptions options;
    options.pick = pick;
    const NoLossMatcher matcher(pool, 2, options);
    ASSERT_EQ(matcher.num_groups(), 2);
    EXPECT_EQ(matcher.group(0).rect, Rect({Interval(3, 9)}));
    const std::vector<SubscriberId> interested{0, 1, 2};
    const MatchDecision d = matcher.match(Point{5.0}, interested);
    EXPECT_EQ(d.group_id, 0);
    EXPECT_EQ(ToVec(d.group_members), (std::vector<SubscriberId>{0, 1}));
    EXPECT_EQ(ToVec(d.unicast_targets), (std::vector<SubscriberId>{2}));
  }
}

TEST(NoLossMatcherTest, UsesOnlyTopKGroups) {
  const Workload wl = TwoClusterWorkload();
  const auto pub = UniformPub(wl);
  const NoLossResult result = NoLossCluster(wl, *pub);
  ASSERT_GT(result.groups.size(), 1u);
  const NoLossMatcher matcher(result, 1);
  EXPECT_EQ(matcher.num_groups(), 1);
}

}  // namespace
}  // namespace pubsub
