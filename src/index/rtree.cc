#include "index/rtree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace pubsub {
namespace {

// Volume-based measure used for enlargement decisions.  Rectangles here are
// finite and non-empty, so volume is positive and finite.
inline double Measure(const Rect& r) { return r.volume(); }

inline double Enlargement(const Rect& mbr, const Rect& r) {
  return Measure(mbr.hull(r)) - Measure(mbr);
}

inline void CheckInsertable(const Rect& r) {
  if (r.empty()) throw std::invalid_argument("RTree: empty rectangle");
  for (const Interval& iv : r.intervals()) {
    if (!std::isfinite(iv.lo()) || !std::isfinite(iv.hi()))
      throw std::invalid_argument("RTree: unbounded rectangle");
  }
}

// Quadratic split (Guttman): distribute `items` into two groups.  RectOf
// extracts the bounding rectangle of an item.
template <typename Item, typename RectOf>
void QuadraticSplit(std::vector<Item>& items, std::vector<Item>& out_a,
                    std::vector<Item>& out_b, std::size_t min_fill, RectOf rect_of) {
  assert(items.size() >= 2);

  // Seed selection: the pair wasting the most area if grouped together.
  std::size_t seed_a = 0, seed_b = 1;
  double worst = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < items.size(); ++i) {
    for (std::size_t j = i + 1; j < items.size(); ++j) {
      const double waste = Measure(rect_of(items[i]).hull(rect_of(items[j]))) -
                           Measure(rect_of(items[i])) - Measure(rect_of(items[j]));
      if (waste > worst) {
        worst = waste;
        seed_a = i;
        seed_b = j;
      }
    }
  }

  Rect mbr_a = rect_of(items[seed_a]);
  Rect mbr_b = rect_of(items[seed_b]);
  out_a.push_back(std::move(items[seed_a]));
  out_b.push_back(std::move(items[seed_b]));

  std::vector<Item> rest;
  rest.reserve(items.size() - 2);
  for (std::size_t i = 0; i < items.size(); ++i)
    if (i != seed_a && i != seed_b) rest.push_back(std::move(items[i]));
  items.clear();

  while (!rest.empty()) {
    // If one group must take everything left to reach min fill, do so.
    if (out_a.size() + rest.size() == min_fill) {
      for (Item& it : rest) {
        mbr_a = mbr_a.hull(rect_of(it));
        out_a.push_back(std::move(it));
      }
      break;
    }
    if (out_b.size() + rest.size() == min_fill) {
      for (Item& it : rest) {
        mbr_b = mbr_b.hull(rect_of(it));
        out_b.push_back(std::move(it));
      }
      break;
    }

    // Pick the item with the strongest group preference.
    std::size_t best = 0;
    double best_diff = -1.0;
    double best_da = 0, best_db = 0;
    for (std::size_t i = 0; i < rest.size(); ++i) {
      const double da = Enlargement(mbr_a, rect_of(rest[i]));
      const double db = Enlargement(mbr_b, rect_of(rest[i]));
      const double diff = std::abs(da - db);
      if (diff > best_diff) {
        best_diff = diff;
        best = i;
        best_da = da;
        best_db = db;
      }
    }
    Item it = std::move(rest[best]);
    rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(best));

    const bool to_a = best_da < best_db ||
                      (best_da == best_db && out_a.size() <= out_b.size());
    if (to_a) {
      mbr_a = mbr_a.hull(rect_of(it));
      out_a.push_back(std::move(it));
    } else {
      mbr_b = mbr_b.hull(rect_of(it));
      out_b.push_back(std::move(it));
    }
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

RTree::RTree(std::size_t max_entries)
    : max_entries_(max_entries), min_entries_(std::max<std::size_t>(2, max_entries / 3)) {
  if (max_entries < 4) throw std::invalid_argument("RTree: max_entries must be >= 4");
}

RTree::~RTree() = default;
RTree::RTree(RTree&&) noexcept = default;
RTree& RTree::operator=(RTree&&) noexcept = default;

void RTree::insert(const Rect& r, int id) {
  CheckInsertable(r);
  if (!root_) {
    root_ = std::make_unique<Node>();
    root_->leaf = true;
  }

  // Recursive insert; returns a new sibling if the child split.
  struct Inserter {
    RTree& tree;

    std::unique_ptr<Node> insert(Node& node, const Rect& r, int id) {
      node.mbr = node.fanout() == 0 ? r : node.mbr.hull(r);
      if (node.leaf) {
        node.entries.push_back(Node::LeafEntry{r, id});
        if (node.entries.size() <= tree.max_entries_) return nullptr;
        return split_leaf(node);
      }

      // Choose the child needing least enlargement (ties: smaller measure).
      Node* best = nullptr;
      double best_enl = std::numeric_limits<double>::infinity();
      double best_measure = std::numeric_limits<double>::infinity();
      for (const auto& c : node.children) {
        const double enl = Enlargement(c->mbr, r);
        const double m = Measure(c->mbr);
        if (enl < best_enl || (enl == best_enl && m < best_measure)) {
          best_enl = enl;
          best_measure = m;
          best = c.get();
        }
      }
      std::unique_ptr<Node> sibling = insert(*best, r, id);
      if (sibling) {
        node.children.push_back(std::move(sibling));
        if (node.children.size() > tree.max_entries_) return split_internal(node);
      }
      return nullptr;
    }

    std::unique_ptr<Node> split_leaf(Node& node) {
      std::vector<Node::LeafEntry> items = std::move(node.entries);
      node.entries.clear();
      auto sibling = std::make_unique<Node>();
      sibling->leaf = true;
      QuadraticSplit(items, node.entries, sibling->entries, tree.min_entries_,
                     [](const Node::LeafEntry& e) -> const Rect& { return e.rect; });
      node.recompute_mbr();
      sibling->recompute_mbr();
      return sibling;
    }

    std::unique_ptr<Node> split_internal(Node& node) {
      std::vector<std::unique_ptr<Node>> items = std::move(node.children);
      node.children.clear();
      auto sibling = std::make_unique<Node>();
      sibling->leaf = false;
      QuadraticSplit(items, node.children, sibling->children, tree.min_entries_,
                     [](const std::unique_ptr<Node>& n) -> const Rect& { return n->mbr; });
      node.recompute_mbr();
      sibling->recompute_mbr();
      return sibling;
    }
  };

  Inserter inserter{*this};
  std::unique_ptr<Node> sibling = inserter.insert(*root_, r, id);
  if (sibling) {
    auto new_root = std::make_unique<Node>();
    new_root->leaf = false;
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(sibling));
    new_root->recompute_mbr();
    root_ = std::move(new_root);
  }
  ++size_;
}

bool RTree::erase(const Rect& r, int id) {
  if (!root_) return false;

  // Recursive find-and-remove; collects leaf entries of nodes that fall
  // below the minimum fill so they can be re-inserted afterwards.
  std::vector<Node::LeafEntry> orphans;

  auto collect_leaves = [&orphans](auto&& self, Node& node) -> void {
    if (node.leaf) {
      for (Node::LeafEntry& e : node.entries) orphans.push_back(std::move(e));
      return;
    }
    for (const auto& c : node.children) self(self, *c);
  };

  auto remove = [&](auto&& self, Node& node) -> bool {
    if (!node.mbr.contains(r)) return false;
    if (node.leaf) {
      for (std::size_t i = 0; i < node.entries.size(); ++i) {
        if (node.entries[i].id == id && node.entries[i].rect == r) {
          node.entries.erase(node.entries.begin() + static_cast<std::ptrdiff_t>(i));
          node.recompute_mbr();
          return true;
        }
      }
      return false;
    }
    for (std::size_t i = 0; i < node.children.size(); ++i) {
      if (!self(self, *node.children[i])) continue;
      // Condense: dissolve an underfull child into the orphan pool.
      if (node.children[i]->fanout() < min_entries_) {
        collect_leaves(collect_leaves, *node.children[i]);
        node.children.erase(node.children.begin() + static_cast<std::ptrdiff_t>(i));
      }
      node.recompute_mbr();
      return true;
    }
    return false;
  };

  if (!remove(remove, *root_)) return false;
  --size_;

  // Shrink the root: an internal root with one child is replaced by it; a
  // root that lost everything is dropped.
  while (!root_->leaf && root_->children.size() == 1)
    root_ = std::move(root_->children.front());
  if (root_->fanout() == 0 && orphans.empty()) root_.reset();

  // Re-insert orphans (size_ is restored entry by entry).
  size_ -= orphans.size();
  for (Node::LeafEntry& e : orphans) insert(e.rect, e.id);
  return true;
}

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

void RTree::stab(const Point& p, std::vector<int>& out) const {
  if (!root_) return;
  std::vector<const Node*> stack{root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (!node->mbr.contains(p)) continue;
    if (node->leaf) {
      for (const Node::LeafEntry& e : node->entries)
        if (e.rect.contains(p)) out.push_back(e.id);
    } else {
      for (const auto& c : node->children) stack.push_back(c.get());
    }
  }
}

void RTree::stab(const Point& p, std::vector<int>& out,
                 std::vector<const void*>& stack) const {
  if (!root_) return;
  stack.clear();
  stack.push_back(root_.get());
  while (!stack.empty()) {
    const Node* node = static_cast<const Node*>(stack.back());
    stack.pop_back();
    if (!node->mbr.contains(p)) continue;
    if (node->leaf) {
      for (const Node::LeafEntry& e : node->entries)
        if (e.rect.contains(p)) out.push_back(e.id);
    } else {
      for (const auto& c : node->children) stack.push_back(c.get());
    }
  }
}

void RTree::intersecting(const Rect& r, std::vector<int>& out) const {
  if (!root_) return;
  std::vector<const Node*> stack{root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (!node->mbr.intersects(r)) continue;
    if (node->leaf) {
      for (const Node::LeafEntry& e : node->entries)
        if (e.rect.intersects(r)) out.push_back(e.id);
    } else {
      for (const auto& c : node->children) stack.push_back(c.get());
    }
  }
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
    if (!is_root && (node.fanout() < min_entries_ || node.fanout() > max_entries_)) {
      // Bulk-loaded rightmost nodes may legitimately be under-filled; only
      // an *empty* non-root node is always a structural error.
      if (node.fanout() == 0) ok = false;
    }
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
