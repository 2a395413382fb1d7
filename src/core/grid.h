// Grid-based clustering framework (§4.1).
//
// The event space is partitioned by the regular grid of unit lattice cells
// (one cell per integer attribute tuple).  Each cell a carries the
// subscriber membership vector
//
//   s(a)_i = 1  iff  some interest rectangle of subscriber i intersects a
//
// and the publication probability p_p(a).  Cells with identical membership
// vectors are merged into *hyper-cells* (inducing zero expected waste, per
// the paper's implementation notes), hyper-cells are ranked by the
// popularity rating r(a) = p_p(a)·Σ_i s(a)_i, and the top `max_cells` are
// handed to a clustering algorithm — the rest fall back to unicast.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cluster_types.h"
#include "geometry/event_space.h"
#include "workload/publication_model.h"
#include "workload/types.h"

namespace pubsub {

// Inclusive range of integer attribute values whose unit cells (v−1, v]
// intersect a subscription interval; empty if last < first.
struct GridValueRange {
  int first;
  int last;
};

// Values v in [0, domain_size) whose unit cell (v−1, v] intersects the
// (lo, hi] interval `iv`.  Exposed for the boundary-semantics property
// test; Grid uses it to fill its per-dimension membership columns.
GridValueRange GridCellsIntersecting(const Interval& iv, int domain_size);

struct HyperCell {
  BitVector members;
  double prob = 0.0;            // total publication mass of member cells
  double popularity = 0.0;      // prob * |members|
  std::vector<std::int64_t> cells;  // lattice ids of member cells
};

class Grid {
 public:
  // Builds membership vectors for every lattice cell of wl.space, merges
  // identical ones into hyper-cells and sorts them by decreasing
  // popularity.  `pub` provides per-cell probabilities.
  //
  // A subscription is a conjunction of per-attribute ranges, so s(a) is
  // the AND, over dimensions, of "subscribers whose range covers a's
  // value".  The build fills one such membership column per (dimension,
  // value), then walks the lattice in id order with one prefix AND per
  // leading dimension: each cell costs one word-wise AND of its prefix and
  // its last coordinate's column, and an empty prefix skips its whole
  // sub-lattice.  A cell's publication mass is a prefix product of
  // pub.value_mass kept alongside, bit-identical to pub.rect_mass of its
  // cell_rect.  Equal vectors merge into hyper-cells as they appear, so
  // hyper-cell ids before the sort follow first occurrence, `cells` is
  // ascending and `prob` is summed in cell order.  The build is serial and
  // its output is a pure function of (wl, pub).
  Grid(const Workload& wl, const PublicationModel& pub);

  const EventSpace& space() const { return *space_; }
  std::size_t num_subscribers() const { return num_subscribers_; }
  std::int64_t num_lattice_cells() const { return lattice_size_; }
  // Lattice cells intersected by at least one subscription.
  std::int64_t num_occupied_cells() const { return occupied_cells_; }

  // Hyper-cells in decreasing popularity order.
  const std::vector<HyperCell>& hyper_cells() const { return hyper_cells_; }

  // Lattice id of the cell containing p, or -1 if p is outside the domain.
  std::int64_t cell_of(const Point& p) const;
  // Hyper-cell index owning a lattice cell, or -1 if no subscriber
  // intersects it.
  int hyper_cell_of(std::int64_t cell) const;
  // The cell's rectangle (product of unit value-intervals).
  Rect cell_rect(std::int64_t cell) const;

  // ClusterCell views of the `max_cells` most popular hyper-cells (all of
  // them if max_cells == 0 or exceeds the count).  Views reference this
  // Grid; it must outlive them.
  std::vector<ClusterCell> top_cells(std::size_t max_cells) const;

  // Spatial adjacency over the `top_n` most popular hyper-cells (indices
  // align with top_cells(top_n); top_n == 0 means all): hyper-cells i and
  // j are neighbors iff some lattice cell of i touches a lattice cell of j
  // along one axis (±1 in one coordinate).  Lists are sorted, deduplicated
  // and symmetric.  This is the neighborhood the closure-accelerated
  // k-means assignment derives its candidate groups from: subscriptions
  // are axis-aligned rectangles, so a cell's nearest group by expected
  // waste is overwhelmingly a group already holding one of its lattice
  // neighbors.
  std::vector<std::vector<int>> cluster_neighbors(std::size_t top_n) const;

 private:
  const EventSpace* space_;
  std::size_t num_subscribers_ = 0;
  std::int64_t lattice_size_ = 0;
  std::int64_t occupied_cells_ = 0;
  std::vector<std::int64_t> strides_;
  std::vector<HyperCell> hyper_cells_;
  std::vector<int> hyper_of_cell_;  // indexed by lattice id; -1 = empty cell
};

}  // namespace pubsub
