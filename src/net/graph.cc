#include "net/graph.h"

#include <stdexcept>
#include <string>

namespace pubsub {

Graph::Graph(int num_nodes) : adj_(static_cast<std::size_t>(num_nodes)) {
  if (num_nodes < 0) throw std::invalid_argument("Graph: negative node count");
}

NodeId Graph::add_node() {
  adj_.emplace_back();
  return num_nodes() - 1;
}

void Graph::check_node(NodeId v, const char* who) const {
  if (v < 0 || v >= num_nodes())
    throw std::out_of_range(std::string(who) + ": node " + std::to_string(v) +
                            " is outside the network (" +
                            std::to_string(num_nodes()) + " nodes)");
}

EdgeId Graph::add_edge(NodeId u, NodeId v, double cost) {
  if (u < 0 || v < 0 || u >= num_nodes() || v >= num_nodes())
    throw std::out_of_range("Graph::add_edge: node out of range");
  if (u == v) throw std::invalid_argument("Graph::add_edge: self-loop");
  if (cost <= 0) throw std::invalid_argument("Graph::add_edge: non-positive cost");
  const EdgeId id = num_edges();
  edges_.push_back(Edge{u, v, cost});
  adj_[u].push_back(Neighbor{v, id});
  adj_[v].push_back(Neighbor{u, id});
  return id;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  if (degree(u) > degree(v)) return has_edge(v, u);
  for (const Neighbor& n : adj_[u])
    if (n.node == v) return true;
  return false;
}

bool Graph::is_connected() const {
  if (num_nodes() == 0) return true;
  std::vector<char> seen(adj_.size(), 0);
  std::vector<NodeId> stack{0};
  seen[0] = 1;
  int count = 1;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    for (const Neighbor& n : adj_[u]) {
      if (!seen[n.node]) {
        seen[n.node] = 1;
        ++count;
        stack.push_back(n.node);
      }
    }
  }
  return count == num_nodes();
}

double Graph::total_edge_cost() const {
  double total = 0.0;
  for (const Edge& e : edges_) total += e.cost;
  return total;
}

}  // namespace pubsub
