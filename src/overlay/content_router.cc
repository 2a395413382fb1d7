#include "overlay/content_router.h"

#include <algorithm>
#include <stdexcept>

#include "net/shortest_path.h"
#include "net/spanning.h"

namespace pubsub {

ContentRouter::ContentRouter(const Graph& network, const Workload& wl,
                             const ContentRouterOptions& options)
    : network_(&network), workload_(&wl), summary_kind_(options.summary) {
  if (network.num_nodes() == 0)
    throw std::invalid_argument("ContentRouter: empty network");

  // 1. Choose the overlay tree.
  if (options.tree == OverlayTree::kMst) {
    tree_edges_ = KruskalMst(network);
  } else {
    const ShortestPathTree spt = Dijkstra(network, options.spt_root);
    for (NodeId v = 0; v < network.num_nodes(); ++v) {
      if (spt.parent_edge[static_cast<std::size_t>(v)] != -1)
        tree_edges_.push_back(spt.parent_edge[static_cast<std::size_t>(v)]);
      else if (v != options.spt_root)
        throw std::invalid_argument("ContentRouter: disconnected network");
    }
  }

  // 2. Directed summaries, two per tree edge, and tree adjacency.
  tree_adj_.assign(static_cast<std::size_t>(network.num_nodes()), {});
  summaries_.reserve(tree_edges_.size() * 2);
  for (const EdgeId e : tree_edges_) {
    const Edge& edge = network.edge(e);
    for (const auto& [from, to] : {std::pair{edge.u, edge.v}, std::pair{edge.v, edge.u}}) {
      DirectedSummary s;
      s.from = from;
      s.to = to;
      s.edge = e;
      s.behind = BitVector(workload_->num_subscribers());
      tree_adj_[static_cast<std::size_t>(from)].push_back(
          static_cast<int>(summaries_.size()));
      summaries_.push_back(std::move(s));
    }
  }

  rebuild_summaries();
}

void ContentRouter::rebuild_summaries() {
  const int n = network_->num_nodes();
  const std::size_t ns = workload_->num_subscribers();

  // Subscribers and interest hulls per node.
  std::vector<BitVector> at_node(static_cast<std::size_t>(n), BitVector(ns));
  std::vector<Rect> hull_at_node(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < workload_->subscribers.size(); ++i) {
    const Subscriber& sub = workload_->subscribers[i];
    if (sub.interest.empty()) continue;  // departed / empty interest
    at_node[static_cast<std::size_t>(sub.node)].set(i);
    Rect& h = hull_at_node[static_cast<std::size_t>(sub.node)];
    h = h.dims() == 0 ? sub.interest : h.hull(sub.interest);
  }

  // Root the tree at 0 and compute a DFS order.
  std::vector<int> parent_summary(static_cast<std::size_t>(n), -1);
  std::vector<NodeId> order;
  order.reserve(static_cast<std::size_t>(n));
  {
    std::vector<char> seen(static_cast<std::size_t>(n), 0);
    std::vector<NodeId> stack{0};
    seen[0] = 1;
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      order.push_back(u);
      for (const int si : tree_adj_[static_cast<std::size_t>(u)]) {
        const NodeId v = summaries_[static_cast<std::size_t>(si)].to;
        if (seen[static_cast<std::size_t>(v)]) continue;
        seen[static_cast<std::size_t>(v)] = 1;
        // si is the u→v summary; its "behind" is the subtree below v.
        parent_summary[static_cast<std::size_t>(v)] = si;
        stack.push_back(v);
      }
    }
    if (order.size() != static_cast<std::size_t>(n))
      throw std::invalid_argument("ContentRouter: tree does not span the network");
  }

  // Bottom-up: below[v] = subscribers/hull in v's subtree.
  std::vector<BitVector> below(static_cast<std::size_t>(n), BitVector(ns));
  std::vector<Rect> below_hull(static_cast<std::size_t>(n));
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId v = *it;
    below[static_cast<std::size_t>(v)] |= at_node[static_cast<std::size_t>(v)];
    Rect h = hull_at_node[static_cast<std::size_t>(v)];
    for (const int si : tree_adj_[static_cast<std::size_t>(v)]) {
      const DirectedSummary& s = summaries_[static_cast<std::size_t>(si)];
      if (parent_summary[static_cast<std::size_t>(s.to)] != si) continue;  // child edge only
      below[static_cast<std::size_t>(v)] |= below[static_cast<std::size_t>(s.to)];
      const Rect& ch = below_hull[static_cast<std::size_t>(s.to)];
      if (ch.dims() != 0) h = h.dims() == 0 ? ch : h.hull(ch);
    }
    below_hull[static_cast<std::size_t>(v)] = std::move(h);
  }

  // All subscribers / global hull, for complement sides.
  BitVector all(ns);
  for (const BitVector& b : at_node) all |= b;

  // Fill summaries.  For the parent→child direction behind = below[child];
  // for child→parent, behind = all \ below[child], and the hull is
  // recomputed top-down ("up" hull of the child).
  std::vector<Rect> up_hull(static_cast<std::size_t>(n));
  for (const NodeId u : order) {
    // up_hull[u] already final (root's is empty).
    for (const int si : tree_adj_[static_cast<std::size_t>(u)]) {
      DirectedSummary& down = summaries_[static_cast<std::size_t>(si)];
      const NodeId child = down.to;
      if (parent_summary[static_cast<std::size_t>(child)] != si) continue;

      down.behind = below[static_cast<std::size_t>(child)];
      down.bounds = below_hull[static_cast<std::size_t>(child)];
      down.bounds_valid = down.bounds.dims() != 0;

      // Reverse direction (child→u): everything except the child's subtree.
      DirectedSummary& up = summaries_[static_cast<std::size_t>(si ^ 1)];
      up.behind = all;
      up.behind.and_not_assign(below[static_cast<std::size_t>(child)]);

      Rect h = up_hull[static_cast<std::size_t>(u)];
      const Rect& here = hull_at_node[static_cast<std::size_t>(u)];
      if (here.dims() != 0) h = h.dims() == 0 ? here : h.hull(here);
      for (const int sj : tree_adj_[static_cast<std::size_t>(u)]) {
        const DirectedSummary& sib = summaries_[static_cast<std::size_t>(sj)];
        if (parent_summary[static_cast<std::size_t>(sib.to)] != sj) continue;
        if (sib.to == child) continue;
        const Rect& sh = below_hull[static_cast<std::size_t>(sib.to)];
        if (sh.dims() != 0) h = h.dims() == 0 ? sh : h.hull(sh);
      }
      up.bounds = h;
      up.bounds_valid = h.dims() != 0;
      up_hull[static_cast<std::size_t>(child)] = std::move(h);
    }
  }
}

bool ContentRouter::summary_matches(const DirectedSummary& s, const Point& event,
                                    const BitVector& interested) const {
  if (summary_kind_ == SummaryKind::kExact) return s.behind.intersects(interested);
  return s.bounds_valid && s.bounds.contains(event);
}

RouteResult ContentRouter::route(NodeId origin, const Point& event,
                                 const std::vector<SubscriberId>& interested,
                                 std::vector<NodeId>* reached) const {
  if (origin < 0 || origin >= network_->num_nodes())
    throw std::out_of_range("ContentRouter::route: bad origin");

  BitVector interested_bits(workload_->num_subscribers());
  for (const SubscriberId s : interested)
    interested_bits.set(static_cast<std::size_t>(s));

  RouteResult r;
  struct Frame {
    NodeId node;
    int arrived_via;  // summary index used to reach node, -1 at origin
  };
  std::vector<Frame> stack{{origin, -1}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    ++r.nodes_reached;
    if (reached != nullptr) reached->push_back(f.node);
    for (const int si : tree_adj_[static_cast<std::size_t>(f.node)]) {
      const DirectedSummary& s = summaries_[static_cast<std::size_t>(si)];
      // Don't route back where we came from (arrived_via is the summary
      // pointing *toward* f.node; its reverse is si ^ 1 ... compare nodes).
      if (f.arrived_via != -1 &&
          summaries_[static_cast<std::size_t>(f.arrived_via)].from == s.to)
        continue;
      ++r.matches_performed;
      if (!summary_matches(s, event, interested_bits)) continue;
      ++r.edges_traversed;
      r.cost += network_->edge(s.edge).cost;
      if (!s.behind.intersects(interested_bits)) ++r.wasted_edges;
      stack.push_back(Frame{s.to, si});
    }
  }
  return r;
}

int ContentRouter::update_subscription(SubscriberId id, const Rect& new_interest) {
  if (id < 0 || static_cast<std::size_t>(id) >= workload_->num_subscribers())
    throw std::out_of_range("ContentRouter::update_subscription: bad id");

  // The router summarizes the *current* workload; the caller mutates the
  // workload first, then notifies.  (A defensive check keeps the two in
  // sync when the caller passes the rectangle explicitly.)
  (void)new_interest;

  std::vector<Rect> old_bounds;
  std::vector<char> old_valid;
  old_bounds.reserve(summaries_.size());
  for (const DirectedSummary& s : summaries_) {
    old_bounds.push_back(s.bounds);
    old_valid.push_back(s.bounds_valid ? 1 : 0);
  }

  rebuild_summaries();

  if (summary_kind_ == SummaryKind::kExact) {
    // Every broker on the subscriber's side of each edge stores its
    // interest verbatim: all n−1 directed summaries containing it refresh.
    int touched = 0;
    for (const DirectedSummary& s : summaries_)
      if (s.behind.test(static_cast<std::size_t>(id))) ++touched;
    return touched;
  }

  int changed = 0;
  for (std::size_t i = 0; i < summaries_.size(); ++i) {
    const bool valid = summaries_[i].bounds_valid;
    if (valid != (old_valid[i] != 0) ||
        (valid && !(summaries_[i].bounds == old_bounds[i])))
      ++changed;
  }
  return changed;
}

std::size_t ContentRouter::state_bits() const {
  std::size_t bits = 0;
  for (const DirectedSummary& s : summaries_) {
    if (summary_kind_ == SummaryKind::kExact) {
      bits += s.behind.size();
    } else {
      // One rectangle: two doubles per dimension.
      bits += s.bounds.dims() * 2 * 64;
    }
  }
  return bits;
}

double ContentRouter::tree_cost() const {
  double total = 0;
  for (const EdgeId e : tree_edges_) total += network_->edge(e).cost;
  return total;
}

}  // namespace pubsub
