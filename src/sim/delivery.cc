#include "sim/delivery.h"

#include <stdexcept>
#include <string>

namespace pubsub {

DeliverySimulator::DeliverySimulator(const Graph& network, const Workload& wl)
    : network_(&network), workload_(&wl), scratch_(network) {
  for (const Subscriber& s : wl.subscribers)
    network.check_node(s.node, "DeliverySimulator");
  lattice_ = LatticeIndex(wl.space, wl.subscribers.size());
  for (std::size_t i = 0; i < wl.subscribers.size(); ++i)
    lattice_.insert(static_cast<int>(i), wl.subscribers[i].interest);
}

std::vector<SubscriberId> DeliverySimulator::interested(const Point& p) const {
  std::vector<SubscriberId> out;
  std::vector<std::uint64_t> tmp;
  interested_into(p, out, tmp);
  return out;
}

void DeliverySimulator::interested_into(const Point& p,
                                        std::vector<SubscriberId>& out,
                                        std::vector<std::uint64_t>& tmp) const {
  workload_->space.check_lattice_point(p, "DeliverySimulator");
  lattice_.stab(p, out, tmp);
}

const ShortestPathTree& DeliverySimulator::spt(NodeId origin) {
  const auto it = spt_cache_.find(origin);
  if (it != spt_cache_.end()) return it->second;
  return spt_cache_.emplace(origin, Dijkstra(*network_, origin)).first->second;
}

const DistanceMatrix& DeliverySimulator::distances() {
  if (!dm_) dm_ = std::make_unique<DistanceMatrix>(*network_);
  return *dm_;
}

const ShortestPathTree& DeliverySimulator::cached_spt(NodeId origin) const {
  const auto it = spt_cache_.find(origin);
  if (it == spt_cache_.end())
    throw std::logic_error("DeliverySimulator: SPT of origin " +
                           std::to_string(origin) + " not warmed");
  return it->second;
}

const DistanceMatrix& DeliverySimulator::cached_distances() const {
  if (!dm_) throw std::logic_error("DeliverySimulator: distance matrix not warmed");
  return *dm_;
}

std::vector<NodeId>& DeliverySimulator::nodes_of(std::span<const SubscriberId> subs,
                                                 std::vector<NodeId>& out) const {
  out.clear();
  for (const SubscriberId s : subs)
    out.push_back(workload_->subscribers[static_cast<std::size_t>(s)].node);
  return out;
}

double DeliverySimulator::unicast_cost(NodeId origin, std::span<const SubscriberId> subs) {
  return UnicastCost(spt(origin), nodes_of(subs, scratch_.nodes));
}

double DeliverySimulator::broadcast_cost(NodeId origin) {
  return BroadcastCost(spt(origin));
}

double DeliverySimulator::ideal_cost(NodeId origin, std::span<const SubscriberId> subs) {
  return scratch_.pruner.cost(spt(origin), nodes_of(subs, scratch_.nodes));
}

double DeliverySimulator::ideal_cost_applevel(NodeId origin,
                                              std::span<const SubscriberId> subs) {
  return AppLevelMulticastCost(distances(), origin, nodes_of(subs, scratch_.nodes));
}

double DeliverySimulator::clustered_cost_network(NodeId origin, const MatchDecision& d) {
  if (d.group_id >= 0 || !d.unicast_targets.empty()) spt(origin);
  return clustered_cost_network(origin, d, scratch_);
}

double DeliverySimulator::clustered_cost_applevel(NodeId origin, const MatchDecision& d) {
  if (d.group_id >= 0) distances();
  if (!d.unicast_targets.empty()) spt(origin);
  return clustered_cost_applevel(origin, d, scratch_);
}

void DeliverySimulator::warm_clustered_costs(std::span<const NodeId> origins,
                                             bool applevel) {
  for (const NodeId origin : origins) spt(origin);
  if (applevel) distances();
}

double DeliverySimulator::clustered_cost_network(NodeId origin, const MatchDecision& d,
                                                 CostScratch& scratch) const {
  double cost = 0.0;
  if (d.group_id >= 0)
    cost += scratch.pruner.cost(cached_spt(origin), nodes_of(d.group_members, scratch.nodes));
  if (!d.unicast_targets.empty())
    cost += UnicastCost(cached_spt(origin), nodes_of(d.unicast_targets, scratch.nodes));
  return cost;
}

double DeliverySimulator::clustered_cost_applevel(NodeId origin, const MatchDecision& d,
                                                  CostScratch& scratch) const {
  double cost = 0.0;
  if (d.group_id >= 0)
    cost += AppLevelMulticastCost(cached_distances(), origin,
                                  nodes_of(d.group_members, scratch.nodes));
  if (!d.unicast_targets.empty())
    cost += UnicastCost(cached_spt(origin), nodes_of(d.unicast_targets, scratch.nodes));
  return cost;
}

std::size_t DeliverySimulator::wasted_deliveries(const MatchDecision& d,
                                                 std::span<const SubscriberId> interested) {
  if (d.group_id < 0) return 0;
  std::size_t wasted = 0;
  for (const SubscriberId m : d.group_members) {
    bool found = false;
    for (const SubscriberId s : interested)
      if (s == m) {
        found = true;
        break;
      }
    if (!found) ++wasted;
  }
  return wasted;
}

}  // namespace pubsub
