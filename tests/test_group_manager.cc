#include "core/group_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "core/kmeans.h"
#include "sim/experiment.h"
#include "sim/scenario.h"

namespace pubsub {
namespace {

struct Fixture {
  Fixture() : scenario(MakeStockScenario(300, PublicationHotSpots::kOne, 51)) {}

  GroupManagerOptions SmallOptions() const {
    GroupManagerOptions o;
    o.num_groups = 20;
    o.max_cells = 1000;
    return o;
  }

  Scenario scenario;
};

TEST(GroupManager, InitialBuildProducesServingMatcher) {
  Fixture f;
  GroupManager mgr(f.scenario.workload, *f.scenario.pub, f.SmallOptions());
  EXPECT_EQ(mgr.workload().num_subscribers(), 300u);
  EXPECT_EQ(mgr.matcher().num_groups(), 20);
  EXPECT_EQ(mgr.pending_churn(), 0u);

  // The matcher must cover every interested subscriber of a few events.
  DeliverySimulator sim(f.scenario.net.graph, mgr.workload());
  Rng rng(52);
  for (const EventSample& e : SampleEvents(sim, *f.scenario.pub, 40, rng)) {
    const MatchDecision d = mgr.matcher().match(e.pub.point, e.interested);
    for (const SubscriberId s : e.interested) {
      const bool in_group =
          d.group_id >= 0 && std::find(d.group_members.begin(),
                                       d.group_members.end(),
                                       s) != d.group_members.end();
      const bool in_unicast =
          std::find(d.unicast_targets.begin(), d.unicast_targets.end(), s) !=
          d.unicast_targets.end();
      EXPECT_TRUE(in_group || in_unicast);
    }
  }
}

TEST(GroupManager, ChurnCountingAndWarmRefresh) {
  Fixture f;
  GroupManager mgr(f.scenario.workload, *f.scenario.pub, f.SmallOptions());

  const Rect interest = f.scenario.workload.subscribers[0].interest;
  const SubscriberId added = mgr.add_subscriber(5, interest);
  EXPECT_EQ(added, 300);
  mgr.update_subscriber(3, interest);
  mgr.remove_subscriber(7);
  EXPECT_EQ(mgr.pending_churn(), 3u);

  const GroupManager::RefreshStats stats = mgr.refresh();
  EXPECT_EQ(stats.churned, 3u);
  EXPECT_FALSE(stats.full_rebuild);  // 3/301 churn: warm path
  EXPECT_LE(stats.iterations, 5u);   // bounded re-balancing passes
  EXPECT_EQ(mgr.pending_churn(), 0u);
}

TEST(GroupManager, RemovedSubscriberLeavesAllGroups) {
  Fixture f;
  GroupManager mgr(f.scenario.workload, *f.scenario.pub, f.SmallOptions());
  const SubscriberId victim = 0;
  mgr.remove_subscriber(victim);
  mgr.refresh();
  for (int g = 0; g < mgr.matcher().num_groups(); ++g) {
    const auto members = mgr.matcher().group_members(g);
    EXPECT_EQ(std::find(members.begin(), members.end(), victim), members.end());
  }
}

TEST(GroupManager, AddedSubscriberJoinsAGroupAfterRefresh) {
  Fixture f;
  GroupManager mgr(f.scenario.workload, *f.scenario.pub, f.SmallOptions());
  // A wide interest guarantees the new subscriber intersects popular cells.
  const SubscriberId id = mgr.add_subscriber(9, mgr.workload().space.domain_rect());
  mgr.refresh();
  bool found = false;
  for (int g = 0; g < mgr.matcher().num_groups() && !found; ++g) {
    const auto members = mgr.matcher().group_members(g);
    found = std::find(members.begin(), members.end(), id) != members.end();
  }
  EXPECT_TRUE(found);
}

TEST(GroupManager, MassChurnTriggersFullRebuild) {
  Fixture f;
  GroupManager mgr(f.scenario.workload, *f.scenario.pub, f.SmallOptions());
  const Rect wide = mgr.workload().space.domain_rect();
  for (SubscriberId id = 0; id < 160; ++id) mgr.update_subscriber(id, wide);
  const GroupManager::RefreshStats stats = mgr.refresh();
  EXPECT_TRUE(stats.full_rebuild);  // 160/300 >= 0.5
  // The full-build counter resets: small follow-up churn is warm again.
  mgr.update_subscriber(0, wide);
  EXPECT_FALSE(mgr.refresh().full_rebuild);
}

TEST(GroupManager, QualityHoldsAcrossChurnRounds) {
  // Needs a denser deployment than the other tests: with few subscribers
  // per event, multicast has nothing to amortize and even a perfect
  // clustering hovers near 0 % improvement.
  const Scenario scenario = MakeStockScenario(800, PublicationHotSpots::kOne, 51);
  GroupManagerOptions opt;
  opt.num_groups = 60;
  opt.max_cells = 4000;
  GroupManager mgr(scenario.workload, *scenario.pub, opt);
  Rng churn_rng(53);

  for (int round = 0; round < 3; ++round) {
    // Replace 10% of subscriptions with fresh ones.
    Rng gen = churn_rng.split(static_cast<std::uint64_t>(round));
    const Workload fresh = GenerateStockSubscriptions(scenario.net, 800, {}, gen);
    for (SubscriberId id = 0; id < 800; ++id)
      if (churn_rng.bernoulli(0.1))
        mgr.update_subscriber(id, fresh.subscribers[static_cast<std::size_t>(id)].interest);
    const GroupManager::RefreshStats stats = mgr.refresh();
    EXPECT_FALSE(stats.full_rebuild);

    DeliverySimulator sim(scenario.net.graph, mgr.workload());
    Rng ev(54 + static_cast<std::uint64_t>(round));
    const auto events = SampleEvents(sim, *scenario.pub, 80, ev);
    const BaselineCosts base = EvaluateBaselines(sim, events);
    const ClusteredCosts c =
        EvaluateMatcher(sim, events, MatcherFn(mgr.matcher()));
    EXPECT_GT(ImprovementPercent(c.network, base), 20.0) << "round " << round;
  }
}

// The between-refresh window contract (header comment): a subscriber added
// after the last refresh is invisible to the matcher, so a multicast
// decision never covers it — the caller owns its delivery via the
// exact-match unicast path (interested \ group).  This is the recipe the
// broker service layer implements; an event for a not-yet-refreshed
// subscriber must not be lost.
TEST(GroupManager, BetweenRefreshWindowNeedsCallerUnicast) {
  Fixture f;
  GroupManager mgr(f.scenario.workload, *f.scenario.pub, f.SmallOptions());
  // Domain-wide interest: the new subscriber is interested in every event.
  const SubscriberId fresh =
      mgr.add_subscriber(9, mgr.workload().space.domain_rect());
  // No refresh() — the matcher still serves the pre-churn clustering.

  DeliverySimulator sim(f.scenario.net.graph, mgr.workload());
  Rng rng(55);
  std::size_t multicasts = 0;
  for (const EventSample& e : SampleEvents(sim, *f.scenario.pub, 40, rng)) {
    // The live interested set (what the broker's subscription index
    // returns) includes the fresh subscriber.
    ASSERT_NE(std::find(e.interested.begin(), e.interested.end(), fresh),
              e.interested.end());
    const MatchDecision d = mgr.matcher().match(e.pub.point, e.interested);
    if (d.group_id < 0) {
      // Unicast fallback serves the exact interested set: covered.
      EXPECT_NE(std::find(d.unicast_targets.begin(), d.unicast_targets.end(),
                          fresh),
                d.unicast_targets.end());
      continue;
    }
    ++multicasts;
    // The matcher's decision alone does NOT cover the fresh subscriber...
    EXPECT_EQ(std::find(d.group_members.begin(), d.group_members.end(), fresh),
              d.group_members.end());
    EXPECT_TRUE(d.unicast_targets.empty());
    // ...the documented caller recipe does.
    std::vector<SubscriberId> extras;
    std::set_difference(e.interested.begin(), e.interested.end(),
                        d.group_members.begin(), d.group_members.end(),
                        std::back_inserter(extras));
    EXPECT_NE(std::find(extras.begin(), extras.end(), fresh), extras.end());
  }
  EXPECT_GT(multicasts, 0u);  // the contract was actually exercised

  // After refresh() the window closes and the matcher itself covers the
  // subscriber (see AddedSubscriberJoinsAGroupAfterRefresh).
  mgr.refresh();
  EXPECT_EQ(mgr.pending_churn(), 0u);
}

// refresh() against a reference built here from scratch: a fresh Grid of
// the churned table, each hyper-cell labelled with the plurality group of
// its lattice cells under the previous grid, then KMeansCluster for five
// passes from those labels — or from scratch once at least half the table
// has churned since the last full build.  Rounds of 40 updates take the
// manager through warm, warm, warm, cold and warm again, with closure off
// and on.
TEST(GroupManager, RefreshMatchesFromScratchReference) {
  Fixture f;
  const auto& subs = f.scenario.workload.subscribers;
  for (const bool closure : {false, true}) {
    GroupManagerOptions opt = f.SmallOptions();
    opt.closure = closure;
    GroupManager mgr(f.scenario.workload, *f.scenario.pub, opt);
    std::size_t churn_since_full = 0;
    for (SubscriberId first = 0; first < 200; first += 40) {
      for (SubscriberId id = first; id < first + 40; ++id)
        mgr.update_subscriber(
            id, subs[static_cast<std::size_t>((id + 17) % 300)].interest);
      churn_since_full += 40;
      const bool cold =
          2 * churn_since_full >= mgr.workload().num_subscribers();

      const Grid grid(mgr.workload(), *f.scenario.pub);
      const std::vector<ClusterCell> cells = grid.top_cells(opt.max_cells);
      const std::vector<std::vector<int>> neighbors =
          grid.cluster_neighbors(cells.size());
      KMeansOptions kopt;
      kopt.closure = closure;
      kopt.neighbors = &neighbors;
      Assignment inherited(cells.size(), -1);
      if (!cold) {
        for (std::size_t h = 0; h < cells.size(); ++h) {
          std::vector<int> votes(opt.num_groups, 0);
          int best_votes = 0;
          for (const std::int64_t cell : grid.hyper_cells()[h].cells) {
            const int old_h = mgr.grid().hyper_cell_of(cell);
            if (old_h < 0 ||
                static_cast<std::size_t>(old_h) >= mgr.assignment().size())
              continue;
            const int g = mgr.assignment()[static_cast<std::size_t>(old_h)];
            if (++votes[static_cast<std::size_t>(g)] > best_votes) {
              best_votes = votes[static_cast<std::size_t>(g)];
              inherited[h] = g;
            }
          }
        }
        kopt.warm_start = &inherited;
        kopt.max_iterations = 5;
      }
      const Assignment want =
          KMeansCluster(cells, opt.num_groups, kopt).assignment;

      const GroupManager::RefreshStats stats = mgr.refresh();
      ASSERT_EQ(stats.full_rebuild, cold) << "closure=" << closure;
      ASSERT_EQ(mgr.assignment(), want)
          << "closure=" << closure << " after " << first + 40 << " updates";
      if (cold) churn_since_full = 0;
    }
  }
}

TEST(GroupManager, SnapshotRestoreReproducesMatcher) {
  Fixture f;
  GroupManager mgr(f.scenario.workload, *f.scenario.pub, f.SmallOptions());
  mgr.update_subscriber(3, mgr.workload().space.domain_rect());
  mgr.refresh();

  const GroupManager restored(mgr.workload(), *f.scenario.pub,
                              f.SmallOptions(), mgr.assignment(),
                              mgr.churn_since_full_build());
  EXPECT_EQ(restored.assignment(), mgr.assignment());
  EXPECT_EQ(restored.churn_since_full_build(), mgr.churn_since_full_build());
  ASSERT_EQ(restored.matcher().num_groups(), mgr.matcher().num_groups());
  for (int g = 0; g < mgr.matcher().num_groups(); ++g) {
    const auto a = mgr.matcher().group_members(g);
    const auto b = restored.matcher().group_members(g);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }

  // An assignment from a different workload/options set is rejected.
  Assignment truncated = mgr.assignment();
  truncated.pop_back();
  EXPECT_THROW(GroupManager(mgr.workload(), *f.scenario.pub, f.SmallOptions(),
                            truncated, 0),
               std::invalid_argument);
}

TEST(GroupManager, Validation) {
  Fixture f;
  GroupManager mgr(f.scenario.workload, *f.scenario.pub, f.SmallOptions());
  EXPECT_THROW(mgr.update_subscriber(-1, Rect(4)), std::out_of_range);
  EXPECT_THROW(mgr.update_subscriber(9999, Rect(4)), std::out_of_range);
  EXPECT_THROW(mgr.add_subscriber(0, Rect(2)), std::invalid_argument);
  GroupManagerOptions bad;
  bad.num_groups = 0;
  EXPECT_THROW(GroupManager(f.scenario.workload, *f.scenario.pub, bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace pubsub
