#include "index/rtree.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace pubsub {
namespace {

inline void CheckInsertable(const Rect& r) {
  if (r.empty()) throw std::invalid_argument("RTree: empty rectangle");
  for (const Interval& iv : r.intervals()) {
    if (!std::isfinite(iv.lo()) || !std::isfinite(iv.hi()))
      throw std::invalid_argument("RTree: unbounded rectangle");
  }
}

// Sort-Tile-Recursive slab arithmetic.
inline std::size_t StrSlabCount(std::size_t n, std::size_t max_entries,
                                std::size_t dims, std::size_t dim) {
  const double pages =
      std::ceil(static_cast<double>(n) / static_cast<double>(max_entries));
  return static_cast<std::size_t>(std::max(
      1.0, std::ceil(std::pow(pages, 1.0 / static_cast<double>(dims - dim)))));
}

}  // namespace

struct RTree::Node {
  struct LeafEntry {
    Rect rect;
    int id;
  };

  Rect mbr;
  bool leaf = true;
  std::vector<LeafEntry> entries;                 // leaf only
  std::vector<std::unique_ptr<Node>> children;    // internal only

  std::size_t fanout() const { return leaf ? entries.size() : children.size(); }

  void recompute_mbr() {
    Rect m;
    if (leaf) {
      for (const LeafEntry& e : entries) m = m.dims() == 0 ? e.rect : m.hull(e.rect);
    } else {
      for (const auto& c : children) m = m.dims() == 0 ? c->mbr : m.hull(c->mbr);
    }
    mbr = m;
  }
};

RTree::RTree(std::size_t max_entries) : max_entries_(max_entries) {
  if (max_entries < 4) throw std::invalid_argument("RTree: max_entries must be >= 4");
}

RTree::~RTree() = default;
RTree::RTree(RTree&&) noexcept = default;
RTree& RTree::operator=(RTree&&) noexcept = default;

RTree RTree::BulkLoad(std::vector<std::pair<Rect, int>> items, std::size_t max_entries) {
  RTree tree(max_entries);
  if (items.empty()) return tree;
  for (const auto& item : items) CheckInsertable(item.first);

  const std::size_t dims = items[0].first.dims();

  // Sort-Tile-Recursive leaf packing.
  std::vector<std::unique_ptr<Node>> level;
  auto center = [](const Rect& r, std::size_t d) {
    return 0.5 * (r[d].lo() + r[d].hi());
  };

  using Iter = std::vector<std::pair<Rect, int>>::iterator;
  auto pack = [&](auto&& self, Iter begin, Iter end, std::size_t dim) -> void {
    const std::size_t n = static_cast<std::size_t>(end - begin);
    if (dim + 1 >= dims || n <= max_entries) {
      std::sort(begin, end, [&](const auto& a, const auto& b) {
        return center(a.first, dim) < center(b.first, dim);
      });
      for (Iter it = begin; it < end; it += static_cast<std::ptrdiff_t>(
               std::min<std::size_t>(max_entries, static_cast<std::size_t>(end - it)))) {
        const std::size_t take = std::min<std::size_t>(max_entries, static_cast<std::size_t>(end - it));
        auto leaf = std::make_unique<Node>();
        leaf->leaf = true;
        for (std::size_t i = 0; i < take; ++i)
          leaf->entries.push_back(Node::LeafEntry{(it + static_cast<std::ptrdiff_t>(i))->first,
                                                  (it + static_cast<std::ptrdiff_t>(i))->second});
        leaf->recompute_mbr();
        level.push_back(std::move(leaf));
      }
      return;
    }
    std::sort(begin, end, [&](const auto& a, const auto& b) {
      return center(a.first, dim) < center(b.first, dim);
    });
    const std::size_t slabs = StrSlabCount(n, max_entries, dims, dim);
    const std::size_t slab_size = (n + slabs - 1) / slabs;
    for (Iter it = begin; it < end;) {
      const std::size_t take = std::min<std::size_t>(slab_size, static_cast<std::size_t>(end - it));
      self(self, it, it + static_cast<std::ptrdiff_t>(take), dim + 1);
      it += static_cast<std::ptrdiff_t>(take);
    }
  };
  pack(pack, items.begin(), items.end(), 0);

  // Build upper levels by grouping consecutive nodes.
  while (level.size() > 1) {
    std::vector<std::unique_ptr<Node>> parents;
    for (std::size_t i = 0; i < level.size();) {
      const std::size_t take = std::min(max_entries, level.size() - i);
      auto parent = std::make_unique<Node>();
      parent->leaf = false;
      for (std::size_t j = 0; j < take; ++j)
        parent->children.push_back(std::move(level[i + j]));
      parent->recompute_mbr();
      parents.push_back(std::move(parent));
      i += take;
    }
    level = std::move(parents);
  }
  tree.root_ = std::move(level.front());
  tree.size_ = items.size();
  return tree;
}

void RTree::containing(const Rect& r, std::vector<int>& out) const {
  if (!root_) return;
  std::vector<const Node*> stack{root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    // A node can only hold an entry containing r if its MBR contains r.
    if (!node->mbr.contains(r)) continue;
    if (node->leaf) {
      for (const Node::LeafEntry& e : node->entries)
        if (e.rect.contains(r)) out.push_back(e.id);
    } else {
      for (const auto& c : node->children) stack.push_back(c.get());
    }
  }
}

int RTree::height() const {
  int h = 0;
  for (const Node* n = root_.get(); n != nullptr;
       n = n->leaf ? nullptr : n->children.front().get())
    ++h;
  return h;
}

bool RTree::check_invariants() const {
  if (!root_) return size_ == 0;

  std::size_t entries = 0;
  int leaf_depth = -1;
  bool ok = true;

  auto walk = [&](auto&& self, const Node& node, int depth, bool is_root) -> void {
    // Packed rightmost nodes may be under-filled; only an *empty* non-root
    // node is a structural error.
    if (!is_root && node.fanout() == 0) ok = false;
    if (node.fanout() > max_entries_) ok = false;
    if (node.leaf) {
      if (leaf_depth == -1) leaf_depth = depth;
      if (depth != leaf_depth) ok = false;
      entries += node.entries.size();
      for (const Node::LeafEntry& e : node.entries)
        if (!node.mbr.contains(e.rect)) ok = false;
    } else {
      if (node.children.empty()) ok = false;
      for (const auto& c : node.children) {
        if (!node.mbr.contains(c->mbr)) ok = false;
        self(self, *c, depth + 1, false);
      }
    }
  };
  walk(walk, *root_, 0, true);
  return ok && entries == size_;
}

}  // namespace pubsub
