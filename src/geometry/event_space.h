// Event space descriptor.
//
// The paper's event spaces are products of finite discrete attribute
// domains: the §3 model is {stub-id} × {0..20}³ and the §5.1 stock model is
// {bst} × {name} × {quote} × {volume} with each attribute taking integer
// values.  An integer value v is embedded on the real line as the half-open
// unit interval (v−1, v], so the whole domain of a dimension with n values
// is (−1, n−1] and adjacent values tile it exactly.  Grids, subscription
// rectangles and publication points all live in this embedding.
#pragma once

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "geometry/rect.h"

namespace pubsub {

struct DimensionSpec {
  std::string name;
  // Attribute takes integer values 0 .. domain_size-1.
  int domain_size = 0;
};

class EventSpace {
 public:
  EventSpace() = default;
  explicit EventSpace(std::vector<DimensionSpec> dims);

  std::size_t dims() const { return dims_.size(); }
  const DimensionSpec& dim(std::size_t d) const { return dims_[d]; }

  // Real-line interval covering the whole domain of dimension d: (−1, n−1].
  Interval domain_interval(std::size_t d) const;
  // Full-domain rectangle.
  Rect domain_rect() const;

  // Interval representing the single integer value v in dimension d.
  static Interval value_interval(int v) { return Interval::Point(v); }
  // Point coordinate for integer value v (the right end of its interval).
  static double value_coord(int v) { return static_cast<double>(v); }
  // True iff `x` is a lattice coordinate: a finite integer.  An integer
  // outside a dimension's domain is one too; such a point matches nothing.
  static bool is_lattice_coord(double x) {
    return std::isfinite(x) && x == std::floor(x);
  }
  // Throws std::invalid_argument, naming `who`, unless `p` has dims()
  // coordinates and each is a lattice coordinate.  Exact matching
  // (index/lattice_index.h) answers only lattice points, so every path that
  // accepts an event checks it here first.
  void check_lattice_point(const Point& p, const char* who) const;

  // Clamp an arbitrary real sample into the valid coordinate range of
  // dimension d, then round to the nearest integer value's coordinate.
  double clamp_to_domain(std::size_t d, double x) const;

  // Total number of unit cells in the integer lattice.
  std::size_t lattice_size() const;

  std::string to_string() const;

 private:
  std::vector<DimensionSpec> dims_;
};

}  // namespace pubsub
