#include "workload/publication_model.h"

#include <stdexcept>

namespace pubsub {

ProductPublicationModel::ProductPublicationModel(EventSpace space,
                                                 std::vector<Marginal1D> marginals,
                                                 std::vector<NodeId> origins)
    : space_(std::move(space)),
      marginals_(std::move(marginals)),
      origins_(std::move(origins)) {
  if (marginals_.size() != space_.dims())
    throw std::invalid_argument("ProductPublicationModel: marginal count mismatch");
  for (std::size_t d = 0; d < marginals_.size(); ++d)
    if (marginals_[d].domain_size() != space_.dim(d).domain_size)
      throw std::invalid_argument("ProductPublicationModel: domain mismatch in dim " +
                                  std::to_string(d));
  if (origins_.empty())
    throw std::invalid_argument("ProductPublicationModel: no origin nodes");
}

std::unique_ptr<ProductPublicationModel> ProductPublicationModel::Regional(
    EventSpace space, std::vector<Marginal1D> tail_marginals,
    std::vector<NodeId> origins, const std::vector<int>& stub_of_node,
    int num_stubs) {
  if (space.dims() != tail_marginals.size() + 1)
    throw std::invalid_argument("Regional: need dims-1 tail marginals");
  if (space.dim(0).domain_size != num_stubs)
    throw std::invalid_argument("Regional: dim 0 must span the stubs");

  // Dimension-0 marginal = frequency of each stub among the origins.
  std::vector<double> stub_freq(static_cast<std::size_t>(num_stubs), 0.0);
  for (const NodeId v : origins) {
    const int s = stub_of_node.at(static_cast<std::size_t>(v));
    if (s < 0 || s >= num_stubs)
      throw std::invalid_argument("Regional: origin not in a stub");
    stub_freq[static_cast<std::size_t>(s)] += 1.0;
  }

  std::vector<Marginal1D> marginals;
  marginals.reserve(space.dims());
  marginals.push_back(Marginal1D::Categorical(std::move(stub_freq)));
  for (Marginal1D& m : tail_marginals) marginals.push_back(std::move(m));

  auto model = std::make_unique<ProductPublicationModel>(
      std::move(space), std::move(marginals), std::move(origins));
  model->regional_ = true;
  model->stub_of_node_ = stub_of_node;
  return model;
}

Publication ProductPublicationModel::sample(Rng& rng) const {
  Publication pub;
  pub.origin = origins_[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(origins_.size()) - 1))];
  pub.point.reserve(space_.dims());
  for (std::size_t d = 0; d < space_.dims(); ++d) {
    if (d == 0 && regional_) {
      pub.point.push_back(EventSpace::value_coord(
          stub_of_node_[static_cast<std::size_t>(pub.origin)]));
    } else {
      pub.point.push_back(EventSpace::value_coord(marginals_[d].sample(rng)));
    }
  }
  return pub;
}

double ProductPublicationModel::rect_mass(const Rect& r) const {
  if (r.dims() != space_.dims())
    throw std::invalid_argument("rect_mass: dimensionality mismatch");
  double mass = 1.0;
  for (std::size_t d = 0; d < space_.dims(); ++d) {
    mass *= marginals_[d].interval_mass(r[d]);
    if (mass == 0.0) return 0.0;
  }
  return mass;
}

double ProductPublicationModel::value_mass(std::size_t dim, int v) const {
  return marginals_[dim].interval_mass(Interval::Point(v));
}

}  // namespace pubsub
