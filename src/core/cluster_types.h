// Common types for the subscription-clustering algorithms (§4).
//
// Every grid-based algorithm consumes the same input: a list of cells
// (hyper-cells in practice), each carrying a subscriber membership
// bit-vector s(a) and a publication probability p_p(a), and produces an
// assignment of cells to K groups.  The inter-object distance is the
// *expected waste* of §4.1:
//
//   d(a,b) = p_p(a)·|s(a)\s(b)| + p_p(b)·|s(b)\s(a)|
//
// — the expected number of messages delivered to uninterested subscribers
// if a and b share one multicast group.  The same formula applies between
// groups (with s = union of members, p = sum of member probabilities).
//
// The distance kernels are word-level: each evaluation is one fused pass
// over the 64-bit membership words (both AND-NOT popcounts per word pair),
// and BatchedGroupWaste evaluates one cell against a whole block of group
// vectors in a single sweep — the closure-accelerated k-means assignment
// (core/kmeans) runs on these.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bitvector.h"

namespace pubsub {

// One clustering object: a (hyper-)cell's membership vector and
// publication probability.  The vector is referenced, not owned; the cell
// source (core/grid.h) must outlive the algorithm run.
struct ClusterCell {
  const BitVector* members = nullptr;
  double prob = 0.0;

  double popularity() const { return prob * static_cast<double>(members->count()); }
};

// Group index per cell, each in [0, K).  Size equals the number of input
// cells.
using Assignment = std::vector<int>;

// Expected waste between two membership vectors with probabilities, via
// the fused one-pass diff kernel.
inline double ExpectedWaste(const BitVector& sa, double pa, const BitVector& sb,
                            double pb) {
  std::size_t a_not_b = 0, b_not_a = 0;
  sa.count_diffs(sb, &a_not_b, &b_not_a);
  return pa * static_cast<double>(a_not_b) + pb * static_cast<double>(b_not_a);
}

inline double ExpectedWaste(const ClusterCell& a, const ClusterCell& b) {
  return ExpectedWaste(*a.members, a.prob, *b.members, b.prob);
}

// Mutable group state shared by the iterative and hierarchical algorithms:
// the OR of member vectors, per-subscriber member counts (so removal is
// O(N_S)), total probability, and population.  add/remove also maintain,
// incrementally and at no extra asymptotic cost:
//
//   * cardinality()  — |s(g)|, the set-bit count of the union vector;
//   * unique()       — the bits exactly one member contributes (member
//                      count == 1), which turns distance_to_excluding into
//                      a pure word kernel;
//   * waste()        — this group's contribution to the §4.1 objective.
//     Members satisfy s(a) ⊆ s(g), so
//       W(g) = Σ_{a∈g} p(a)·|s(g)\s(a)| = prob(g)·|s(g)| − Σ_{a∈g} p(a)·|s(a)|
//     and the right-hand side needs only two scalars maintained across
//     add/remove — total waste of an assignment is a Σ over K groups
//     instead of a fresh pass over every cell (the incremental-waste
//     invariant; test_cluster_types pins it against TotalExpectedWaste).
class GroupState {
 public:
  explicit GroupState(std::size_t num_subscribers)
      : vec_(num_subscribers), unique_(num_subscribers),
        counts_(num_subscribers, 0) {}

  const BitVector& vec() const { return vec_; }
  // Bits with member count exactly 1 (what the last contributor would take
  // away with it).
  const BitVector& unique() const { return unique_; }
  double prob() const { return prob_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // |s(g)|, maintained incrementally (no popcount pass).
  std::size_t cardinality() const { return card_; }
  // This group's expected waste Σ_{a∈g} p(a)·|s(g)\s(a)| under the member
  // containment identity above.  Exact up to floating-point association;
  // TotalExpectedWaste is the from-scratch oracle.
  double waste() const {
    return prob_ * static_cast<double>(card_) - member_mass_;
  }

  void add(const ClusterCell& cell);
  void remove(const ClusterCell& cell);
  // Absorb another group (used by the agglomerative algorithms).
  void merge_from(const GroupState& other);

  // Expected waste between a cell and this group's membership vector.
  double distance_to(const ClusterCell& cell) const {
    return ExpectedWaste(*cell.members, cell.prob, vec_, prob_);
  }
  // Expected waste between `cell` and this group with the cell's own
  // contribution removed — bit-identical to remove(cell); distance_to(cell);
  // add(cell), but const, so snapshot-based passes can evaluate many cells
  // concurrently against one frozen group state.  `cell` must be a member.
  // One fused pass over the cell and unique() words.  When `unique_out` is
  // non-null it receives |s(cell) ∩ unique()| — the bits removal would
  // strip from the union vector, which the k-means improvement check needs.
  double distance_to_excluding(const ClusterCell& cell,
                               std::size_t* unique_out = nullptr) const;
  double distance_to(const GroupState& other) const {
    return ExpectedWaste(vec_, prob_, other.vec_, other.prob_);
  }

 private:
  BitVector vec_;
  BitVector unique_;
  std::vector<int> counts_;
  double prob_ = 0.0;
  std::size_t size_ = 0;
  std::size_t card_ = 0;         // |vec_|
  double member_mass_ = 0.0;     // Σ_{a∈g} p(a)·|s(a)|
};

// Word-level batched assignment kernel: expected-waste distances from
// `cell` to `count` groups in ONE sweep over the membership words — the
// outer loop walks the cell's words (each loaded once, kept hot) and the
// inner loop visits every candidate's word, accumulating both AND-NOT
// popcounts.  out_dist[j] receives d(cell, groups[cand[j]]);
// out_cell_not_g[j] (optional, else nullptr) receives |s(cell)\s(g_j)|,
// which prices the union growth if the cell moved there.  Distances are
// bit-identical to per-candidate distance_to calls.
void BatchedGroupWaste(const ClusterCell& cell,
                       const std::vector<GroupState>& groups, const int* cand,
                       std::size_t count, double* out_dist,
                       std::size_t* out_cell_not_g);

// Total expected waste of an assignment: for each group g and member cell
// a, p_p(a)·|s(g)\s(a)| — the analytic objective the algorithms minimize.
// Cells with assignment -1 (unclustered → unicast) contribute nothing.
// From-scratch derivation; the iterative algorithms track the same value
// incrementally via GroupState::waste().
double TotalExpectedWaste(const std::vector<ClusterCell>& cells,
                          const Assignment& assignment, int num_groups);

}  // namespace pubsub
