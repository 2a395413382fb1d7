#include "geometry/event_space.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace pubsub {

EventSpace::EventSpace(std::vector<DimensionSpec> dims) : dims_(std::move(dims)) {
  if (dims_.empty()) throw std::invalid_argument("EventSpace: no dimensions");
  for (const DimensionSpec& d : dims_)
    if (d.domain_size <= 0)
      throw std::invalid_argument("EventSpace: non-positive domain for " + d.name);
}

Interval EventSpace::domain_interval(std::size_t d) const {
  return Interval(-1.0, static_cast<double>(dims_[d].domain_size - 1));
}

Rect EventSpace::domain_rect() const {
  std::vector<Interval> ivals;
  ivals.reserve(dims_.size());
  for (std::size_t d = 0; d < dims_.size(); ++d)
    ivals.push_back(domain_interval(d));
  return Rect(std::move(ivals));
}

void EventSpace::check_lattice_point(const Point& p, const char* who) const {
  if (p.size() != dims_.size())
    throw std::invalid_argument(std::string(who) + ": event has " +
                                std::to_string(p.size()) +
                                " coordinates, the space " +
                                std::to_string(dims_.size()));
  for (std::size_t d = 0; d < p.size(); ++d)
    if (!is_lattice_coord(p[d])) {
      std::ostringstream os;
      os << who << ": event coordinate " << p[d] << " of " << dims_[d].name
         << " is not a lattice value (a finite integer)";
      throw std::invalid_argument(os.str());
    }
}

double EventSpace::clamp_to_domain(std::size_t d, double x) const {
  const double hi = static_cast<double>(dims_[d].domain_size - 1);
  double v = std::round(x);
  if (v < 0.0) v = 0.0;
  if (v > hi) v = hi;
  return v;
}

std::size_t EventSpace::lattice_size() const {
  std::size_t n = 1;
  for (const DimensionSpec& d : dims_) n *= static_cast<std::size_t>(d.domain_size);
  return n;
}

std::string EventSpace::to_string() const {
  std::ostringstream os;
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    if (d) os << " x ";
    os << dims_[d].name << "[" << dims_[d].domain_size << "]";
  }
  return os.str();
}

}  // namespace pubsub
