// Packed R-tree over axis-aligned rectangles (Guttman 1984), built by the
// Sort-Tile-Recursive bulk loading of Leutenegger et al. [10].
//
// This is the matching substrate of §4.6 for static rectangle sets: the
// No-Loss clustering, `NoLossMatcher` and `DeliverySimulator::interested()`
// (whose traversal order the §5 tables are pinned to) index their
// rectangles once, and each published event issues a point-stabbing query.
// A tree is never modified after `BulkLoad`; the broker's churn-maintained
// index is the lattice index (index/lattice_index.h).
//
// All stored rectangles must be finite and non-empty.
#pragma once

#include <memory>
#include <vector>

#include "index/spatial_index.h"

namespace pubsub {

class RTree final : public SpatialIndex {
 public:
  // An empty tree.  A node holds at most max_entries children.
  explicit RTree(std::size_t max_entries = 8);
  ~RTree() override;
  RTree(RTree&&) noexcept;
  RTree& operator=(RTree&&) noexcept;
  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  // Build a packed tree from (rect, id) pairs with Sort-Tile-Recursive.
  static RTree BulkLoad(std::vector<std::pair<Rect, int>> items,
                        std::size_t max_entries = 8);

  std::size_t size() const override { return size_; }

  using SpatialIndex::containing;
  using SpatialIndex::intersecting;
  using SpatialIndex::stab;
  void stab(const Point& p, std::vector<int>& out) const override;
  // Allocation-free stab for the publish hot path: the traversal runs on
  // the caller's reusable stack (cleared on entry; type-erased because Node
  // is private).  Hits append to `out` in the same order as the
  // two-argument overload.
  void stab(const Point& p, std::vector<int>& out,
            std::vector<const void*>& stack) const;
  void intersecting(const Rect& r, std::vector<int>& out) const override;
  void containing(const Rect& r, std::vector<int>& out) const override;

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
