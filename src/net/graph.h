// Undirected weighted graph with adjacency lists.
//
// This is the network substrate of the paper's evaluation: nodes are
// routers/hosts, edge costs are the per-link communication costs whose sums
// the experiments report (§5.2: "the cost of communication was computed by
// summing up the edge costs on the links on which communication takes
// place").
#pragma once

#include <cstddef>
#include <vector>

namespace pubsub {

using NodeId = int;
using EdgeId = int;

struct Edge {
  NodeId u = -1;
  NodeId v = -1;
  double cost = 0.0;

  NodeId other(NodeId x) const { return x == u ? v : u; }
};

class Graph {
 public:
  Graph() = default;
  explicit Graph(int num_nodes);

  int num_nodes() const { return static_cast<int>(adj_.size()); }
  int num_edges() const { return static_cast<int>(edges_.size()); }
  // Throws std::out_of_range, prefixed by `who`, unless v is a node here.
  void check_node(NodeId v, const char* who) const;

  NodeId add_node();
  // Adds an undirected edge; returns its id.  Self-loops and non-positive
  // costs are rejected.
  EdgeId add_edge(NodeId u, NodeId v, double cost);

  const Edge& edge(EdgeId e) const { return edges_[e]; }
  const std::vector<Edge>& edges() const { return edges_; }

  struct Neighbor {
    NodeId node;
    EdgeId edge;
  };
  const std::vector<Neighbor>& neighbors(NodeId u) const { return adj_[u]; }
  std::size_t degree(NodeId u) const { return adj_[u].size(); }

  bool has_edge(NodeId u, NodeId v) const;
  bool is_connected() const;
  double total_edge_cost() const;

 private:
  std::vector<Edge> edges_;
  std::vector<std::vector<Neighbor>> adj_;
};

}  // namespace pubsub
