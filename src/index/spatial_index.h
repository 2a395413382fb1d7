// Interface for rectangle indexes supporting the matching queries of §4.6.
//
// Matching an event ω reduces to a *stabbing* query — find the stored
// rectangles containing the point ω (paper: solved with an R*-tree [5] or
// S-tree [1]).  The No-Loss machinery additionally needs *containment*
// queries (stored rectangles that fully contain a query rectangle — those
// subscribers are interested in *every* event inside it) and window
// (intersection) queries for grid-cell membership.
//
// All rectangles must be finite; workload generators clip subscription
// intervals to the attribute domains before indexing.
#pragma once

#include <cstddef>
#include <vector>

#include "geometry/rect.h"

namespace pubsub {

class SpatialIndex {
 public:
  virtual ~SpatialIndex() = default;

  virtual std::size_t size() const = 0;

  // Ids of stored rectangles containing point p.  Order is implementation-
  // defined but must be deterministic — a pure function of the index's
  // build history — so replays reproduce byte-identical downstream state.
  // It need not be sorted; order-sensitive callers impose their own.
  virtual void stab(const Point& p, std::vector<int>& out) const = 0;
  // Ids of stored rectangles intersecting r.
  virtual void intersecting(const Rect& r, std::vector<int>& out) const = 0;
  // Ids of stored rectangles that contain r entirely.
  virtual void containing(const Rect& r, std::vector<int>& out) const = 0;

  std::vector<int> stab(const Point& p) const {
    std::vector<int> out;
    stab(p, out);
    return out;
  }
  std::vector<int> intersecting(const Rect& r) const {
    std::vector<int> out;
    intersecting(r, out);
    return out;
  }
  std::vector<int> containing(const Rect& r) const {
    std::vector<int> out;
    containing(r, out);
    return out;
  }
};

// Brute-force reference implementation (test oracle; also the fastest
// option for very small subscription sets).
class LinearIndex final : public SpatialIndex {
 public:
  void insert(const Rect& r, int id);
  std::size_t size() const override { return entries_.size(); }
  using SpatialIndex::containing;
  using SpatialIndex::intersecting;
  using SpatialIndex::stab;
  void stab(const Point& p, std::vector<int>& out) const override;
  void intersecting(const Rect& r, std::vector<int>& out) const override;
  void containing(const Rect& r, std::vector<int>& out) const override;

 private:
  struct Entry {
    Rect rect;
    int id;
  };
  std::vector<Entry> entries_;
};

}  // namespace pubsub
