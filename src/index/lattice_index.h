// Exact point matching on the event lattice: one bit-column per
// (attribute, value) over subscriber slots.
//
// The event space is a finite lattice (geometry/event_space.h): attribute d
// takes the integer values 0 .. n_d−1, and every published event is one
// lattice point.  Under the (lo, hi] convention a conjunction of ranges
// contains a lattice point exactly when, in every attribute, its range
// contains the point's value.  So the subscribers interested in an event
// are the AND of one column per attribute.  Column (d, v) holds the
// subscribers whose interest in d contains v: the values ⌊lo⌋+1 … ⌊hi⌋ of
// the interest clipped to the domain, the rule Marginal1D::interval_mass
// uses.
//
//   * A stab ANDs d columns of ⌈slots/64⌉ words and emits ascending ids (the
//     bit order), so the interested set does not depend on churn history.
//   * insert / erase set or clear at most Σ n_d bits.  Rows span every slot
//     of the subscription table, tombstones included, and widen as the
//     table grows.
//   * Memory is Σ n_d × ⌈slots/64⌉ words.  The index keeps no copy of the
//     rectangles: erase() takes the rectangle insert() was given.
//
// Only lattice points have columns.  Callers reject a coordinate that is
// not a finite integer (EventSpace::check_lattice_point) before they stab;
// an integer outside its domain matches nothing.
//
// Grid keeps columns of its own (core/grid.cc): they hold cell
// *intersection*, with upper end ⌈hi⌉, not containment, and the clustering
// is pinned to them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geometry/event_space.h"
#include "geometry/rect.h"

namespace pubsub {

class LatticeIndex {
 public:
  LatticeIndex() = default;
  // Empty columns over `slots` subscriber slots of `space`'s lattice.
  LatticeIndex(const EventSpace& space, std::size_t slots);

  // Subscriber slots the rows span, and the words of one row.
  std::size_t slots() const { return slots_; }
  std::size_t row_words() const { return stride_; }
  // Subscribers whose interest, clipped to the domain, is non-empty (even
  // if some attribute's range holds no integer value).
  std::size_t live() const { return live_; }

  // Set `id`'s bits for `interest`, widening the rows to id + 1 slots if
  // needed.  `id` must hold no bits.
  void insert(int id, const Rect& interest);
  // Clear the bits insert(id, interest) set: `interest` must be the
  // rectangle `id` was inserted with.
  void erase(int id, const Rect& interest);

  // Write the AND of lattice point `p`'s columns into out[0, row_words())
  // and return true; return false, writing nothing, when a coordinate lies
  // outside its domain.
  bool stab(const Point& p, std::uint64_t* out) const;
  // The ids whose interest contains `p`, ascending, into `out` (cleared on
  // entry); `tmp` is the caller's reusable word buffer.
  void stab(const Point& p, std::vector<int>& out,
            std::vector<std::uint64_t>& tmp) const;

 private:
  // Set (on) or clear `id`'s bit in every column of `interest` clipped to
  // the domain; returns false, touching nothing, when the clipped interest
  // is empty.
  bool set_bits(int id, const Rect& interest, bool on);
  void widen(std::size_t slots);

  std::vector<int> sizes_;         // n_d
  std::vector<std::size_t> base_;  // first column of dimension d
  std::size_t columns_ = 0;        // Σ n_d
  std::size_t slots_ = 0;
  std::size_t stride_ = 0;         // ⌈slots_/64⌉
  std::vector<std::uint64_t> words_;  // column c at [c × stride_, +stride_)
  std::size_t live_ = 0;
};

}  // namespace pubsub
