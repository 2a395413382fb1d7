#include "core/cluster_types.h"

#include <stdexcept>

namespace pubsub {

void GroupState::add(const ClusterCell& cell) {
  std::size_t bits = 0;
  cell.members->for_each_set([this, &bits](std::size_t i) {
    const int c = counts_[i]++;
    if (c == 0) {
      vec_.set(i);
      unique_.set(i);
      ++card_;
    } else if (c == 1) {
      unique_.reset(i);
    }
    ++bits;
  });
  prob_ += cell.prob;
  member_mass_ += cell.prob * static_cast<double>(bits);
  ++size_;
}

void GroupState::remove(const ClusterCell& cell) {
  if (size_ == 0) throw std::logic_error("GroupState::remove: empty group");
  std::size_t bits = 0;
  cell.members->for_each_set([this, &bits](std::size_t i) {
    const int c = --counts_[i];
    if (c == 0) {
      vec_.reset(i);
      unique_.reset(i);
      --card_;
    } else if (c == 1) {
      unique_.set(i);
    }
    ++bits;
  });
  prob_ -= cell.prob;
  member_mass_ -= cell.prob * static_cast<double>(bits);
  --size_;
}

PUBSUB_POPCOUNT_KERNEL
double GroupState::distance_to_excluding(const ClusterCell& cell,
                                         std::size_t* unique_out) const {
  // |s(cell) \ s(group−cell)| = |s(cell) ∩ unique()|: the bits only this
  // cell contributes (member count exactly 1).  One fused word pass that
  // also yields |s(cell)| for the group-only term.
  const auto cw = cell.members->words();
  const auto uw = unique_.words();
  std::size_t cell_only = 0, cell_bits = 0;
  for (std::size_t i = 0; i < cw.size(); ++i) {
    cell_only += std::popcount(cw[i] & uw[i]);
    cell_bits += std::popcount(cw[i]);
  }
  // |s(group−cell) \ s(cell)|: group bits outside the cell survive removal
  // untouched; for a member cell s(cell) ⊆ s(group), so |vec_ ∩ cell| is
  // just |cell|.
  const std::size_t group_only = card_ - cell_bits;
  if (unique_out != nullptr) *unique_out = cell_only;
  return cell.prob * static_cast<double>(cell_only) +
         (prob_ - cell.prob) * static_cast<double>(group_only);
}

void GroupState::merge_from(const GroupState& other) {
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const int before = counts_[i];
    counts_[i] += other.counts_[i];
    if (counts_[i] > 0) {
      if (before == 0) ++card_;
      vec_.set(i);
      unique_.assign(i, counts_[i] == 1);
    }
  }
  prob_ += other.prob_;
  size_ += other.size_;
  member_mass_ += other.member_mass_;
}

PUBSUB_POPCOUNT_KERNEL
void BatchedGroupWaste(const ClusterCell& cell,
                       const std::vector<GroupState>& groups, const int* cand,
                       std::size_t count, double* out_dist,
                       std::size_t* out_cell_not_g) {
  // Up to kBlock candidates share one sweep over the cell's words; larger
  // candidate lists fall back to per-candidate fused passes (rare — grid
  // closures are small).
  constexpr std::size_t kBlock = 8;
  if (count > kBlock) {
    for (std::size_t j = 0; j < count; ++j) {
      const GroupState& g = groups[static_cast<std::size_t>(cand[j])];
      std::size_t c_not_g = 0, g_not_c = 0;
      cell.members->count_diffs(g.vec(), &c_not_g, &g_not_c);
      out_dist[j] = cell.prob * static_cast<double>(c_not_g) +
                    g.prob() * static_cast<double>(g_not_c);
      if (out_cell_not_g != nullptr) out_cell_not_g[j] = c_not_g;
    }
    return;
  }

  const auto cw = cell.members->words();
  const std::uint64_t* gw[kBlock];
  std::size_t c_not_g[kBlock] = {};
  std::size_t g_not_c[kBlock] = {};
  for (std::size_t j = 0; j < count; ++j)
    gw[j] = groups[static_cast<std::size_t>(cand[j])].vec().words().data();

  for (std::size_t i = 0; i < cw.size(); ++i) {
    const std::uint64_t w = cw[i];
    for (std::size_t j = 0; j < count; ++j) {
      const std::uint64_t v = gw[j][i];
      c_not_g[j] += static_cast<std::size_t>(std::popcount(w & ~v));
      g_not_c[j] += static_cast<std::size_t>(std::popcount(v & ~w));
    }
  }
  for (std::size_t j = 0; j < count; ++j) {
    out_dist[j] =
        cell.prob * static_cast<double>(c_not_g[j]) +
        groups[static_cast<std::size_t>(cand[j])].prob() *
            static_cast<double>(g_not_c[j]);
    if (out_cell_not_g != nullptr) out_cell_not_g[j] = c_not_g[j];
  }
}

double TotalExpectedWaste(const std::vector<ClusterCell>& cells,
                          const Assignment& assignment, int num_groups) {
  if (assignment.size() != cells.size())
    throw std::invalid_argument("TotalExpectedWaste: size mismatch");
  if (cells.empty()) return 0.0;

  // Only each group's union s(g) is needed: OR the member words.
  std::vector<BitVector> unions(static_cast<std::size_t>(num_groups),
                                BitVector(cells[0].members->size()));
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const int g = assignment[i];
    if (g < 0) continue;
    if (g >= num_groups) throw std::invalid_argument("TotalExpectedWaste: bad group");
    unions[static_cast<std::size_t>(g)] |= *cells[i].members;
  }

  double waste = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const int g = assignment[i];
    if (g < 0) continue;
    waste += cells[i].prob *
             static_cast<double>(unions[static_cast<std::size_t>(g)].count_and_not(
                 *cells[i].members));
  }
  return waste;
}

}  // namespace pubsub
