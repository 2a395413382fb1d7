#include "overlay/content_router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "net/multicast.h"
#include "net/shortest_path.h"
#include "net/spanning.h"
#include "net/transit_stub.h"
#include "sim/delivery.h"
#include "sim/scenario.h"

namespace pubsub {
namespace {

// Line network 0-1-2-3 with subscribers at nodes 1 and 3.
struct LineFixture {
  LineFixture() : graph(4) {
    graph.add_edge(0, 1, 1.0);
    graph.add_edge(1, 2, 2.0);
    graph.add_edge(2, 3, 4.0);
    wl.space = EventSpace({{"x", 10}});
    auto add = [this](NodeId node, double lo, double hi) {
      Subscriber s;
      s.node = node;
      s.interest = Rect({Interval(lo, hi)});
      wl.subscribers.push_back(std::move(s));
    };
    add(1, -1, 4);  // sub 0 at node 1, x in {0..4}
    add(3, 3, 9);   // sub 1 at node 3, x in {4..9}
  }
  Graph graph;
  Workload wl;
};

TEST(ContentRouter, ExactRoutingFollowsTreePathsOnly) {
  LineFixture f;
  ContentRouter router(f.graph, f.wl);

  // Event x=2 interests only sub 0 (node 1): from node 0 traverse edge 0-1.
  RouteResult r = router.route(0, Point{2.0}, {0});
  EXPECT_EQ(r.cost, 1.0);
  EXPECT_EQ(r.edges_traversed, 1);
  EXPECT_EQ(r.wasted_edges, 0);

  // Event x=4 interests both: full line, cost 1+2+4.
  r = router.route(0, Point{4.0}, {0, 1});
  EXPECT_EQ(r.cost, 7.0);
  EXPECT_EQ(r.wasted_edges, 0);

  // Published at node 2, interested {0,1}: edges 1-2 and 2-3.
  r = router.route(2, Point{4.0}, {0, 1});
  EXPECT_EQ(r.cost, 6.0);

  // Nobody interested: nothing forwarded.
  r = router.route(0, Point{2.0}, {});
  EXPECT_EQ(r.cost, 0.0);
  EXPECT_EQ(r.edges_traversed, 0);
  EXPECT_EQ(r.nodes_reached, 1);
}

TEST(ContentRouter, ReachedNodesCoverInterestedSubscribers) {
  LineFixture f;
  ContentRouter router(f.graph, f.wl);
  std::vector<NodeId> reached;
  router.route(0, Point{4.0}, {0, 1}, &reached);
  const std::set<NodeId> got(reached.begin(), reached.end());
  EXPECT_TRUE(got.count(1));
  EXPECT_TRUE(got.count(3));
}

TEST(ContentRouter, BoundsSummariesForwardSuperset) {
  LineFixture f;
  ContentRouterOptions opt;
  opt.summary = SummaryKind::kBounds;
  ContentRouter router(f.graph, f.wl, opt);

  // x=2 only matches sub 0, but the bounds of "behind 1→2" hull the
  // interests of sub 1 (3,9]; x=2 is outside, so no waste here.
  RouteResult r = router.route(0, Point{2.0}, {0});
  EXPECT_GE(r.cost, 1.0);
  // x=3.5 is inside sub 1's hull but belongs only to sub 0's range (3.5 in
  // (3,9] too — both match).  Use x=8: only sub 1.
  std::vector<NodeId> reached;
  r = router.route(0, Point{8.0}, {1}, &reached);
  EXPECT_TRUE(std::find(reached.begin(), reached.end(), 3) != reached.end());
  EXPECT_GE(r.wasted_edges, 0);
}

TEST(ContentRouter, ExactCostEqualsPrunedTreeMulticast) {
  // Property: exact content routing over the tree costs exactly the pruned
  // multicast over the same tree (union of origin→interested-node paths).
  Rng net_rng(3);
  TransitStubParams shape;
  shape.transit_blocks = 3;
  shape.transit_nodes_per_block = 2;
  shape.stubs_per_transit_node = 2;
  shape.nodes_per_stub = 4;
  Scenario s = MakeStockScenario(120, PublicationHotSpots::kOne, 17, {}, shape);

  ContentRouter router(s.net.graph, s.workload);

  // Rebuild the routing tree as its own graph to compute the reference.
  Graph tree_graph(s.net.graph.num_nodes());
  {
    ContentRouterOptions opt;  // same defaults → same MST
    // Recompute the MST directly; KruskalMst is deterministic.
    for (const EdgeId e : KruskalMst(s.net.graph)) {
      const Edge& edge = s.net.graph.edge(e);
      tree_graph.add_edge(edge.u, edge.v, edge.cost);
    }
  }
  PrunedSptCost pruner(tree_graph);

  // Exact interested sets.
  const DeliverySimulator sim(s.net.graph, s.workload);

  Rng rng(18);
  for (int trial = 0; trial < 40; ++trial) {
    const Publication pub = s.pub->sample(rng);
    const std::vector<SubscriberId> interested = sim.interested(pub.point);
    const RouteResult r = router.route(pub.origin, pub.point, interested);
    EXPECT_EQ(r.wasted_edges, 0);

    std::vector<NodeId> nodes;
    for (const SubscriberId sub : interested)
      nodes.push_back(s.workload.subscribers[static_cast<std::size_t>(sub)].node);
    const ShortestPathTree spt = Dijkstra(tree_graph, pub.origin);
    EXPECT_NEAR(r.cost, pruner.cost(spt, nodes), 1e-9) << "trial " << trial;
  }
}

TEST(ContentRouter, BoundsNeverMissAndNeverBeatExact) {
  Rng net_rng(5);
  TransitStubParams shape;
  shape.transit_blocks = 3;
  shape.transit_nodes_per_block = 1;
  shape.stubs_per_transit_node = 2;
  shape.nodes_per_stub = 8;
  Scenario s = MakeStockScenario(150, PublicationHotSpots::kOne, 23, {}, shape);

  ContentRouter exact(s.net.graph, s.workload);
  ContentRouterOptions bopt;
  bopt.summary = SummaryKind::kBounds;
  ContentRouter bounds(s.net.graph, s.workload, bopt);

  const DeliverySimulator sim(s.net.graph, s.workload);

  Rng rng(6);
  for (int trial = 0; trial < 40; ++trial) {
    const Publication pub = s.pub->sample(rng);
    const std::vector<SubscriberId> interested = sim.interested(pub.point);

    std::vector<NodeId> reached;
    const RouteResult rb = bounds.route(pub.origin, pub.point, interested, &reached);
    const RouteResult re = exact.route(pub.origin, pub.point, interested);
    EXPECT_GE(rb.cost, re.cost - 1e-9);

    const std::set<NodeId> reached_set(reached.begin(), reached.end());
    for (const SubscriberId sub : interested)
      EXPECT_TRUE(reached_set.count(
          s.workload.subscribers[static_cast<std::size_t>(sub)].node))
          << "missed subscriber " << sub;
  }
}

TEST(ContentRouter, SptTreeVariant) {
  LineFixture f;
  ContentRouterOptions opt;
  opt.tree = OverlayTree::kSptFromRoot;
  opt.spt_root = 2;
  ContentRouter router(f.graph, f.wl, opt);
  // A line's SPT is the line itself regardless of root.
  EXPECT_EQ(router.num_tree_edges(), 3);
  EXPECT_EQ(router.route(0, Point{4.0}, {0, 1}).cost, 7.0);
}

TEST(ContentRouter, UpdatePropagationCosts) {
  LineFixture f;
  // Exact summaries: every broker with the subscriber behind it refreshes —
  // n−1 directed summaries per update.
  ContentRouter exact(f.graph, f.wl);
  EXPECT_EQ(exact.update_subscription(0, f.wl.subscribers[0].interest), 3);

  // Bounds summaries: an interest change absorbed by unchanged hulls
  // refreshes nothing.
  ContentRouterOptions bopt;
  bopt.summary = SummaryKind::kBounds;
  ContentRouter bounds(f.graph, f.wl, bopt);
  EXPECT_EQ(bounds.update_subscription(0, f.wl.subscribers[0].interest), 0);

  // Shrinking subscriber 1's interest changes the hulls on its side.
  f.wl.subscribers[1].interest = Rect({Interval(5, 6)});
  EXPECT_GT(bounds.update_subscription(1, f.wl.subscribers[1].interest), 0);
}

TEST(ContentRouter, StateAccounting) {
  LineFixture f;
  ContentRouter exact(f.graph, f.wl);
  // 3 tree edges × 2 directions × 2 subscriber bits.
  EXPECT_EQ(exact.state_bits(), 12u);
  ContentRouterOptions bopt;
  bopt.summary = SummaryKind::kBounds;
  ContentRouter bounds(f.graph, f.wl, bopt);
  // 5 of 6 directed edges carry a hull (the edge pointing at the empty
  // node-0 side stores nothing) × 1 dimension × 2 doubles.
  EXPECT_EQ(bounds.state_bits(), 5u * 128u);
  EXPECT_EQ(exact.tree_cost(), 7.0);
}

}  // namespace
}  // namespace pubsub
