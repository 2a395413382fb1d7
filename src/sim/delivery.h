// Per-event delivery cost simulation.
//
// Implements §5.2's cost accounting: "the cost of communication was
// computed by summing up the edge costs on the links on which
// communication takes place."  Accounting rules (matching the paper's
// tables, where unicast cost scales with the subscription count):
//
//   * a unicast message to a subscriber pays the full publisher→node
//     shortest-path cost — one message per subscriber, even when several
//     subscribers share a node;
//   * a multicast to a group pays each link of the delivery tree once
//     (network-supported: publisher-rooted pruned SPT; application-level:
//     MST over the members' unicast-distance metric closure), regardless
//     of how many member subscribers sit behind each node;
//   * broadcast pays the publisher's full SPT.
//
// The simulator caches one shortest-path tree per publisher origin and
// owns the exact-match index over subscription rectangles: the broker's
// lattice index, so every interested set is ascending.
#pragma once

#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/matching.h"
#include "index/lattice_index.h"
#include "net/graph.h"
#include "net/multicast.h"
#include "net/shortest_path.h"
#include "workload/types.h"

namespace pubsub {

class DeliverySimulator {
 public:
  // Throws std::out_of_range when a subscriber's node is outside `network`.
  DeliverySimulator(const Graph& network, const Workload& wl);

  const Graph& network() const { return *network_; }
  const Workload& workload() const { return *workload_; }

  // Exact interested subscribers for an event: the lattice index's stab,
  // in ascending id order (the broker's sorted-set convention).  Throws
  // std::invalid_argument unless `p` is a lattice point
  // (EventSpace::check_lattice_point).
  std::vector<SubscriberId> interested(const Point& p) const;
  // The same set into `out` (cleared on entry).  `tmp` is the caller's
  // reusable word buffer; steady-state calls are allocation-free.
  void interested_into(const Point& p, std::vector<SubscriberId>& out,
                       std::vector<std::uint64_t>& tmp) const;

  // Baseline strategies.
  double unicast_cost(NodeId origin, std::span<const SubscriberId> subs);
  double broadcast_cost(NodeId origin);
  // Ideal multicast: pruned SPT over exactly the interested nodes.
  double ideal_cost(NodeId origin, std::span<const SubscriberId> subs);

  // Clustered delivery: multicast tree over the decision's group members
  // (if any) plus unicasts to the decision's unicast targets.
  // Network-supported flavor.
  double clustered_cost_network(NodeId origin, const MatchDecision& d);
  // Application-level flavor (group relayed over member MST).
  double clustered_cost_applevel(NodeId origin, const MatchDecision& d);

  // App-level equivalent of ideal multicast (for completeness/metrics).
  double ideal_cost_applevel(NodeId origin, std::span<const SubscriberId> subs);

  // Batch flavour of the two clustered costs: the same values, but the
  // simulator is only read — caches must be warmed first with
  // warm_clustered_costs() — and the mutable state lives in `scratch`, so
  // threads holding distinct scratch may call these at once.
  struct CostScratch {
    explicit CostScratch(const Graph& network) : pruner(network) {}
    PrunedSptCost pruner;
    std::vector<NodeId> nodes;
  };
  // Caches the SPT of every origin in `origins` and, when `applevel`, the
  // distance matrix.
  void warm_clustered_costs(std::span<const NodeId> origins, bool applevel);
  double clustered_cost_network(NodeId origin, const MatchDecision& d,
                                CostScratch& scratch) const;
  double clustered_cost_applevel(NodeId origin, const MatchDecision& d,
                                 CostScratch& scratch) const;

  // Number of group members not interested in the event — the realized
  // waste of one delivery (0 for no-loss groups).
  static std::size_t wasted_deliveries(const MatchDecision& d,
                                       std::span<const SubscriberId> interested);

 private:
  const ShortestPathTree& spt(NodeId origin);
  const DistanceMatrix& distances();
  // Cache reads for the const cost paths; throw std::logic_error if the
  // entry was never warmed.
  const ShortestPathTree& cached_spt(NodeId origin) const;
  const DistanceMatrix& cached_distances() const;
  std::vector<NodeId>& nodes_of(std::span<const SubscriberId> subs,
                                std::vector<NodeId>& out) const;

  const Graph* network_;
  const Workload* workload_;
  LatticeIndex lattice_;
  std::unordered_map<NodeId, ShortestPathTree> spt_cache_;
  std::unique_ptr<DistanceMatrix> dm_;  // built on first app-level query
  CostScratch scratch_;                 // for the serial (non-const) calls
};

}  // namespace pubsub
