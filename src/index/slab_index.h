// Word-parallel point-stabbing over a maintainable rectangle set.
//
// The R-tree answers "which rectangles contain p?" by walking MBRs; for the
// matching hot path that DFS — pointer chasing plus per-rectangle interval
// tests — dominates the per-event cost.  This index exploits the repo-wide
// (lo, hi] interval convention instead: along each dimension the distinct
// endpoints e_0 < … < e_{m-1} split the line into m+1 elementary pieces
// (-inf, e_0], (e_0, e_1], …, (e_{m-1}, +inf), and every rectangle's
// membership is constant on each piece.  Per dimension and piece the index
// holds the bit-set of rectangles whose interval covers the piece; a stab
// is one binary search per dimension plus a word-level AND across
// dimensions — no tree walk, no per-rectangle test.
//
// Hits are emitted in ascending id order (the bit order), so a stab doubles
// as the sorted-set kernel the broker's hot path uses.
//
// Maintainable under churn: insert/erase patch the structure in place
// instead of re-deriving all elementary pieces.
//
//   * insert splices at most two new endpoints per dimension.  Inserting
//     endpoint v between e_{k-1} and e_k splits piece k into (e_{k-1}, v]
//     and (v, e_k]; membership is constant across the split, so the new
//     piece duplicates the old piece's bit-row.  Rows live in a slot pool
//     with a piece→slot indirection, so a splice moves O(pieces) 32-bit
//     slot indices plus one O(u/64) row copy — never the whole row table.
//     The id's bit is then OR-ed into the covered piece range, one word
//     per piece.
//   * erase clears the id's bit from its covered piece range and
//     dereferences its endpoints.  Endpoints whose reference count reaches
//     zero are left in place ("dead"): no live rectangle changes
//     membership there, so the adjacent rows are equal and stabs stay
//     exact — the table is merely bloated.
//   * a rebuild-threshold heuristic compacts: when the dead-endpoint count
//     crosses MaintenanceOptions' bound, the index is rebuilt from its
//     stored rectangles (amortized away by the bound; `rebuilds()` /
//     `dead_endpoints()` expose the heuristic as metrics).
//
// Amortized update cost is O(covered pieces) single-word bit operations
// plus the splice; a full rebuild is O(items × pieces / 64) — the churn
// fuzz suite in tests/test_slab_index.cc pins incremental results
// bit-identical to a from-scratch rebuild after every operation.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "geometry/rect.h"

namespace pubsub {

class SlabIndex {
 public:
  // Rebuild-threshold heuristic: compact when the number of dead (zero
  // reference) endpoints both reaches min_dead_endpoints and exceeds
  // bloat_factor × live endpoints.
  struct MaintenanceOptions {
    std::size_t min_dead_endpoints = 64;
    double bloat_factor = 1.0;
  };

  SlabIndex() = default;

  // Bulk-load (rect, id) pairs; every id must lie in [0, universe).  Empty
  // rectangles are skipped (they contain no point).  All rectangles must
  // have the same dimensionality.
  SlabIndex(const std::vector<std::pair<Rect, int>>& items,
            std::size_t universe);
  // As above with a non-default rebuild threshold.  Production indexes use
  // the defaults; the churn fuzz (tests/test_slab_index.cc) passes a low
  // bound to force threshold rebuilds mid-run.
  SlabIndex(const std::vector<std::pair<Rect, int>>& items,
            std::size_t universe, MaintenanceOptions maint);

  // --- incremental maintenance -----------------------------------------
  // Index `rect` under `id` (>= 0; the universe grows as needed — unlike
  // the bulk constructor, which pins it).  An empty rectangle is a no-op
  // (nothing to stab).  Throws std::invalid_argument if `id` is already
  // present or the dimensionality mismatches the resident set.
  void insert(const Rect& rect, int id);
  // Remove `id`; returns false if it was not present.  May trigger a
  // threshold rebuild (see MaintenanceOptions).
  bool erase(int id);

  // Append every id whose rectangle contains p to `out` (cleared on entry),
  // in ascending id order.  `tmp` is the caller's reusable word buffer —
  // steady-state stabs are allocation-free once it has grown to
  // word_count().
  void stab(const Point& p, std::vector<int>& out,
            std::vector<std::uint64_t>& tmp) const;

  bool contains(int id) const {
    return id >= 0 && static_cast<std::size_t>(id) < rects_.size() &&
           !rects_[static_cast<std::size_t>(id)].empty() &&
           rects_[static_cast<std::size_t>(id)].dims() > 0;
  }
  // Stored rectangle of a resident id (empty Rect when absent).
  const Rect& rect_of(int id) const { return rects_[static_cast<std::size_t>(id)]; }

  std::size_t size() const { return size_; }
  std::size_t word_count() const { return words_; }
  std::size_t universe() const { return universe_; }

  // --- maintenance telemetry -------------------------------------------
  // Threshold rebuilds performed by erase.
  std::uint64_t rebuilds() const { return rebuilds_; }
  // Endpoints spliced in by incremental inserts (lifetime count).
  std::uint64_t spliced_endpoints() const { return splices_; }
  // Current endpoint-table bloat: endpoints no live rectangle references.
  std::size_t dead_endpoints() const { return dead_ends_; }
  // Distinct endpoints resident across all dimensions (dead included).
  std::size_t endpoint_count() const { return ends_total_; }

 private:
  struct Dim {
    std::vector<double> ends;            // sorted distinct endpoints
    std::vector<std::uint32_t> refs;     // live references per endpoint
    std::vector<std::uint32_t> row_of;   // piece j -> slot in pool
    std::vector<std::uint64_t> pool;     // slot rows, stride_ words each
  };

  std::uint64_t* row(Dim& dim, std::size_t piece) {
    return &dim.pool[static_cast<std::size_t>(dim.row_of[piece]) * stride_];
  }
  const std::uint64_t* row(const Dim& dim, std::size_t piece) const {
    return &dim.pool[static_cast<std::size_t>(dim.row_of[piece]) * stride_];
  }

  void bulk_build(const std::vector<std::pair<Rect, int>>& items);
  void adopt_dims(std::size_t ndims);
  void grow_universe(std::size_t min_universe);
  // Piece range [first, last] covered by (lo, hi] in `dim`; endpoints must
  // be resident.
  std::pair<std::size_t, std::size_t> covered_range(const Dim& dim, double lo,
                                                    double hi) const;
  void add_endpoint(Dim& dim, double v);
  void drop_endpoint(Dim& dim, double v);
  void maybe_rebuild();

  std::vector<Dim> dims_;
  std::vector<Rect> rects_;  // resident rect per id (empty = absent)
  std::size_t universe_ = 0;
  std::size_t words_ = 0;   // live words per row
  std::size_t stride_ = 0;  // allocated words per slot (>= words_)
  std::size_t size_ = 0;
  std::size_t ndims_ = 0;   // locked at first resident rect
  std::size_t ends_total_ = 0;
  std::size_t dead_ends_ = 0;
  std::uint64_t rebuilds_ = 0;
  std::uint64_t splices_ = 0;
  MaintenanceOptions maint_;
};

}  // namespace pubsub
