#include "sim/delivery.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace pubsub {
namespace {

// Star network: center 0, leaves 1..4 at cost 2 each.  Subscribers:
//   0 → node 1, 1 → node 1 (same node!), 2 → node 2, 3 → node 3.
struct StarFixture {
  StarFixture() : graph(5) {
    for (int i = 1; i <= 4; ++i) graph.add_edge(0, i, 2.0);
    wl.space = EventSpace({{"x", 10}});
    auto add = [this](NodeId node, double lo, double hi) {
      Subscriber s;
      s.node = node;
      s.interest = Rect({Interval(lo, hi)});
      wl.subscribers.push_back(std::move(s));
    };
    add(1, -1, 4);  // sub 0
    add(1, -1, 9);  // sub 1
    add(2, 3, 9);   // sub 2
    add(3, -1, 9);  // sub 3
  }
  Graph graph;
  Workload wl;
};

TEST(DeliverySimulator, InterestedUsesExactMatching) {
  StarFixture f;
  DeliverySimulator sim(f.graph, f.wl);
  EXPECT_EQ(sim.interested(Point{2.0}), (std::vector<SubscriberId>{0, 1, 3}));
  EXPECT_EQ(sim.interested(Point{7.0}), (std::vector<SubscriberId>{1, 2, 3}));
  EXPECT_EQ(sim.interested(Point{4.0}), (std::vector<SubscriberId>{0, 1, 2, 3}));
}

// Both read paths stab the lattice index: at every lattice value the
// ascending set of subscribers whose domain-clipped interest contains the
// point, nothing outside the domain, and a refusal of any coordinate that
// is not a finite integer.
TEST(DeliverySimulator, InterestedIntoIsTheSortedExactSet) {
  StarFixture f;
  Subscriber half;  // sub 4: holds 3, 4 and 5
  half.node = 4;
  half.interest = Rect({Interval(2.5, 5.5)});
  f.wl.subscribers.push_back(half);
  Subscriber gone;  // sub 5: a tombstone
  gone.node = 4;
  gone.interest = Rect({Interval()});
  f.wl.subscribers.push_back(gone);
  DeliverySimulator sim(f.graph, f.wl);
  const Rect domain = f.wl.space.domain_rect();
  std::vector<SubscriberId> out;
  std::vector<std::uint64_t> tmp;
  for (int v = -2; v <= 11; ++v) {
    const Point p{static_cast<double>(v)};
    std::vector<SubscriberId> want;
    for (std::size_t i = 0; i < f.wl.subscribers.size(); ++i)
      if (f.wl.subscribers[i].interest.intersection(domain).contains(p))
        want.push_back(static_cast<SubscriberId>(i));
    EXPECT_EQ(sim.interested(p), want) << v;
    sim.interested_into(p, out, tmp);
    EXPECT_EQ(out, want) << v;
  }
  sim.interested_into(Point{5.0}, out, tmp);
  EXPECT_EQ(out, (std::vector<SubscriberId>{1, 2, 3, 4}));
  for (const double bad : {2.5, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(sim.interested(Point{bad}), std::invalid_argument) << bad;
    EXPECT_THROW(sim.interested_into(Point{bad}, out, tmp),
                 std::invalid_argument)
        << bad;
  }
}

TEST(DeliverySimulator, UnicastPaysPerSubscriberEvenOnSharedNodes) {
  StarFixture f;
  DeliverySimulator sim(f.graph, f.wl);
  // Subscribers 0 and 1 both live on node 1: unicast pays twice.
  const std::vector<SubscriberId> subs = {0, 1, 2};
  EXPECT_EQ(sim.unicast_cost(0, subs), 6.0);
  // From a leaf publisher the path is leaf→center→leaf = 4 per subscriber
  // (0 to a subscriber on the same node).
  EXPECT_EQ(sim.unicast_cost(1, subs), 0.0 + 0.0 + 4.0);
}

TEST(DeliverySimulator, IdealMulticastPaysNodesOnce) {
  StarFixture f;
  DeliverySimulator sim(f.graph, f.wl);
  // Subscribers 0,1 (node 1) and 2 (node 2): tree = edges 0-1, 0-2.
  const std::vector<SubscriberId> subs = {0, 1, 2};
  EXPECT_EQ(sim.ideal_cost(0, subs), 4.0);
  EXPECT_EQ(sim.broadcast_cost(0), 8.0);
  EXPECT_EQ(sim.broadcast_cost(2), 8.0);
}

TEST(DeliverySimulator, ClusteredCostCombinesGroupAndUnicasts) {
  StarFixture f;
  DeliverySimulator sim(f.graph, f.wl);
  MatchDecision d;
  d.group_id = 0;
  const std::vector<SubscriberId> members = {0, 1};  // both node 1
  d.group_members = members;
  const std::vector<SubscriberId> unicasts = {2, 3};  // nodes 2 and 3
  d.unicast_targets = unicasts;
  // Tree to node 1 (cost 2) + unicasts 2 and 2.
  EXPECT_EQ(sim.clustered_cost_network(0, d), 6.0);

  MatchDecision pure;
  const std::vector<SubscriberId> pure_targets = {0, 1};
  pure.unicast_targets = pure_targets;
  EXPECT_EQ(sim.clustered_cost_network(0, pure), 4.0);

  MatchDecision none;
  EXPECT_EQ(sim.clustered_cost_network(0, none), 0.0);
}

TEST(DeliverySimulator, AppLevelRelaysThroughMembers) {
  // Line network 0 - 1 - 2 (costs 1, 1): group {node1, node2} from
  // publisher 0 relays 0→1→2 = 2; network multicast is also 2 here.
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  Workload wl;
  wl.space = EventSpace({{"x", 4}});
  for (NodeId n = 1; n <= 2; ++n) {
    Subscriber s;
    s.node = n;
    s.interest = Rect({Interval(-1, 3)});
    wl.subscribers.push_back(std::move(s));
  }
  DeliverySimulator sim(g, wl);
  MatchDecision d;
  d.group_id = 0;
  const std::vector<SubscriberId> members = {0, 1};
  d.group_members = members;
  EXPECT_EQ(sim.clustered_cost_applevel(0, d), 2.0);
  EXPECT_EQ(sim.clustered_cost_network(0, d), 2.0);
  EXPECT_EQ(sim.ideal_cost_applevel(0, std::vector<SubscriberId>{0, 1}), 2.0);
}

TEST(DeliverySimulator, WastedDeliveriesCountsUninterestedMembers) {
  MatchDecision d;
  d.group_id = 0;
  const std::vector<SubscriberId> members = {0, 1, 2, 3};
  d.group_members = members;
  const std::vector<SubscriberId> interested = {1, 3};
  EXPECT_EQ(DeliverySimulator::wasted_deliveries(d, interested), 2u);
  MatchDecision unicast_only;
  EXPECT_EQ(DeliverySimulator::wasted_deliveries(unicast_only, interested), 0u);
}

TEST(DeliverySimulator, RejectsASubscriberOutsideTheNetwork) {
  StarFixture f;
  f.wl.subscribers[2].node = 99999;
  EXPECT_THROW(DeliverySimulator(f.graph, f.wl), std::out_of_range);
  f.wl.subscribers[2].node = -1;
  EXPECT_THROW(DeliverySimulator(f.graph, f.wl), std::out_of_range);
}

}  // namespace
}  // namespace pubsub
