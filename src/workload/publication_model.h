// Publication (event) models.
//
// A publication model knows how to (a) sample events — an origin node plus
// a point in the event space — and (b) report the probability p_p(r) that
// an event lands inside an arbitrary aligned rectangle.  (b) is what the
// clustering layer needs: the expected-waste distance and the popularity
// rating of §4.1 are both weighted by per-cell publication probabilities.
//
// Both paper models are products of independent per-dimension marginals.
// The §3 model is additionally *regional*: the first attribute of every
// event equals the stub (subnet) id of the originating node, so its
// marginal is the origin-stub frequency distribution rather than an
// independent draw.
#pragma once

#include <memory>
#include <vector>

#include "geometry/event_space.h"
#include "net/graph.h"
#include "workload/marginal.h"
#include "workload/types.h"

namespace pubsub {

class PublicationModel {
 public:
  virtual ~PublicationModel() = default;

  virtual const EventSpace& space() const = 0;
  virtual Publication sample(Rng& rng) const = 0;
  // P(event ∈ r); r must have the space's dimensionality.
  virtual double rect_mass(const Rect& r) const = 0;
  // P(dimension `dim` of an event ∈ (v−1, v]), for 0 <= v < its domain
  // size.  rect_mass of a unit cell is, bit for bit, 1.0 times these
  // factors in dimension order; Grid keeps that product as a prefix
  // product along its lattice walk.
  virtual double value_mass(std::size_t dim, int v) const = 0;
};

// Product-form model: each dimension is an independent Marginal1D; the
// origin is drawn uniformly from `origins`.  With `Regional`, dimension 0
// is generated as the stub id of the sampled origin (its marginal, used
// for rect_mass, is the stub-frequency distribution of the origins).
class ProductPublicationModel final : public PublicationModel {
 public:
  ProductPublicationModel(EventSpace space, std::vector<Marginal1D> marginals,
                          std::vector<NodeId> origins);

  static std::unique_ptr<ProductPublicationModel> Regional(
      EventSpace space, std::vector<Marginal1D> tail_marginals,
      std::vector<NodeId> origins, const std::vector<int>& stub_of_node,
      int num_stubs);

  const EventSpace& space() const override { return space_; }
  Publication sample(Rng& rng) const override;
  double rect_mass(const Rect& r) const override;
  double value_mass(std::size_t dim, int v) const override;

  const std::vector<Marginal1D>& marginals() const { return marginals_; }

 private:
  EventSpace space_;
  std::vector<Marginal1D> marginals_;
  std::vector<NodeId> origins_;
  bool regional_ = false;
  std::vector<int> stub_of_node_;
};

}  // namespace pubsub
