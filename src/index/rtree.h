// Packed R-tree over axis-aligned rectangles (Guttman 1984), built by the
// Sort-Tile-Recursive bulk loading of Leutenegger et al. [10].
//
// It answers one query: the stored rectangles that contain a query
// rectangle.  That is the No-Loss clustering's u(s) (core/noloss.h, §4.5),
// the subscribers interested in every event of a candidate area s.  Event
// points are matched elsewhere: exact interested sets on the lattice
// (index/lattice_index.h), and the No-Loss group pick by a scan of the
// matcher's K ranked areas (core/matching.h).  A tree is never modified
// after `BulkLoad`.
//
// All stored rectangles must be finite and non-empty.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "geometry/rect.h"

namespace pubsub {

class RTree {
 public:
  // An empty tree.  A node holds at most max_entries children.
  explicit RTree(std::size_t max_entries = 8);
  ~RTree();
  RTree(RTree&&) noexcept;
  RTree& operator=(RTree&&) noexcept;
  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  // Build a packed tree from (rect, id) pairs with Sort-Tile-Recursive.
  static RTree BulkLoad(std::vector<std::pair<Rect, int>> items,
                        std::size_t max_entries = 8);

  std::size_t size() const { return size_; }

  // Append to `out` the ids of stored rectangles that contain r entirely,
  // in traversal order (deterministic, not sorted).
  void containing(const Rect& r, std::vector<int>& out) const;

  // Tree height (0 for an empty tree, 1 for a single leaf).
  int height() const;
  // Structural invariants (MBR containment, fan-out bounds); used by tests.
  bool check_invariants() const;

 private:
  struct Node;
  std::unique_ptr<Node> root_;
  std::size_t max_entries_;
  std::size_t size_ = 0;
};

}  // namespace pubsub
