#include "core/kmeans.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "util/thread_pool.h"

namespace pubsub {
namespace {

// Stack capacity for one cell's closure candidate list.  Typical closures
// are |neighbors|·distinct-groups + seeds + cur ≈ a handful; a cell whose
// closure would not fit simply takes the exact scan (deterministic — the
// spill depends only on the candidate count).
constexpr std::size_t kMaxCandidates = 32;
constexpr std::size_t kClosureOverflow = kMaxCandidates + 1;
// The first min(kClosureSeedGroups, K) groups are in every cell's closure
// — the global fallback that lets a cell escape a bad neighborhood.
constexpr std::size_t kClosureSeedGroups = 4;

// Index of the group with minimum expected waste to `cell`.
std::size_t ClosestGroup(const std::vector<GroupState>& groups,
                         const ClusterCell& cell) {
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const double d = groups[g].distance_to(cell);
    if (d < best_d) {
      best_d = d;
      best = g;
    }
  }
  return best;
}

// ClosestGroup with the cell's own contribution removed from its current
// group `cur`, so "stay" and "move" compare the same marginal waste.  Pure
// (no group mutation); same scan order and strict-< tie-breaking as
// ClosestGroup, hence bit-identical to remove → ClosestGroup → add.
std::size_t ClosestGroupExcluding(const std::vector<GroupState>& groups,
                                  std::size_t cur, const ClusterCell& cell) {
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const double d = g == cur ? groups[g].distance_to_excluding(cell)
                              : groups[g].distance_to(cell);
    if (d < best_d) {
      best_d = d;
      best = g;
    }
  }
  return best;
}

// Assembles cell i's closure into cand[]: its current group (`cur`, when
// >= 0), the first `seed_groups` global groups, and the groups its
// neighbors hold under `assignment`.  Deduplicated (linear — the list is
// tiny).  Returns the candidate count, or kClosureOverflow if the list
// would not fit kMaxCandidates.
std::size_t BuildClosure(const std::vector<std::vector<int>>& neighbors,
                         const Assignment& assignment, std::size_t i, int cur,
                         std::size_t seed_groups, int* cand) {
  std::size_t n = 0;
  const auto push = [&](int g) {
    for (std::size_t j = 0; j < n; ++j)
      if (cand[j] == g) return true;
    if (n == kMaxCandidates) return false;
    cand[n++] = g;
    return true;
  };
  if (cur >= 0) push(cur);  // first push never overflows
  for (std::size_t g = 0; g < seed_groups; ++g)
    if (!push(static_cast<int>(g))) return kClosureOverflow;
  for (const int nb : neighbors[i]) {
    const int g = assignment[static_cast<std::size_t>(nb)];
    if (g >= 0 && !push(g)) return kClosureOverflow;
  }
  return n;
}

// Lowest-id minimizer of d(cell, g) over the candidate list (count >= 1).
// The explicit id tie-break makes the verdict independent of candidate
// order, matching the exact scan's first-win-lowest-id rule whenever the
// true closest group is in the closure.
std::size_t ClosestInClosure(const std::vector<GroupState>& groups,
                             const ClusterCell& cell, const int* cand,
                             std::size_t count) {
  double dist[kMaxCandidates];
  BatchedGroupWaste(cell, groups, cand, count, dist, nullptr);
  int best = cand[0];
  double best_d = dist[0];
  for (std::size_t j = 1; j < count; ++j) {
    if (dist[j] < best_d || (dist[j] == best_d && cand[j] < best)) {
      best_d = dist[j];
      best = cand[j];
    }
  }
  return static_cast<std::size_t>(best);
}

}  // namespace

KMeansResult KMeansCluster(const std::vector<ClusterCell>& cells, std::size_t K,
                           const KMeansOptions& options) {
  if (cells.empty()) return {};
  if (K == 0) throw std::invalid_argument("KMeansCluster: K must be positive");
  K = std::min(K, cells.size());
  const std::size_t ns = cells[0].members->size();

  const bool closure = options.closure && options.neighbors != nullptr;
  if (closure && options.neighbors->size() != cells.size())
    throw std::invalid_argument("KMeansCluster: neighbors size mismatch");
  const std::size_t seed_groups = std::min(kClosureSeedGroups, K);

  KMeansResult result;
  result.assignment.assign(cells.size(), -1);
  std::vector<GroupState> groups(K, GroupState(ns));

  // Nearest-group placement used by both seeding paths; closure-accelerated
  // when enabled (candidates = seeds + groups of already-placed neighbors).
  const auto place = [&](std::size_t i) {
    ++result.cell_visits;
    std::size_t g = 0;
    bool used_closure = false;
    if (closure) {
      int cand[kMaxCandidates];
      const std::size_t nc = BuildClosure(*options.neighbors, result.assignment,
                                          i, /*cur=*/-1, seed_groups, cand);
      if (nc >= 1 && nc <= kMaxCandidates) {
        g = ClosestInClosure(groups, cells[i], cand, nc);
        used_closure = true;
        result.distance_evals += nc;
      }
    }
    if (!used_closure || options.closure_oracle) {
      const std::size_t exact = ClosestGroup(groups, cells[i]);
      result.distance_evals += K;
      if (used_closure && g != exact) ++result.oracle_mismatches;
      if (closure && !used_closure) ++result.closure_fallbacks;
      g = exact;
    }
    if (used_closure) ++result.closure_hits;
    groups[g].add(cells[i]);
    result.assignment[i] = static_cast<int>(g);
  };

  if (options.warm_start != nullptr) {
    // Step 0' — warm start from a prior assignment (subscription churn).
    const Assignment& seed = *options.warm_start;
    if (seed.size() != cells.size())
      throw std::invalid_argument("KMeansCluster: warm start size mismatch");
    std::vector<std::size_t> unplaced;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const int g = seed[i];
      if (g >= 0 && static_cast<std::size_t>(g) < K) {
        groups[static_cast<std::size_t>(g)].add(cells[i]);
        result.assignment[i] = g;
      } else {
        unplaced.push_back(i);
      }
    }
    // Empty groups get re-seeded with the most popular unplaced cells (or,
    // failing that, stay empty until the nearest-group pass below fills
    // them with whatever lands there); then place the rest by distance.
    std::size_t next_unplaced = 0;
    for (std::size_t g = 0; g < K; ++g) {
      if (!groups[g].empty() || next_unplaced >= unplaced.size()) continue;
      const std::size_t i = unplaced[next_unplaced++];
      groups[g].add(cells[i]);
      result.assignment[i] = static_cast<int>(g);
    }
    for (std::size_t u = next_unplaced; u < unplaced.size(); ++u) place(unplaced[u]);
  } else {
    // Step 0 — initial partition: the K most popular cells seed the groups
    // (input is popularity-ordered), remaining cells join the closest
    // group, with vectors updated as cells arrive.
    for (std::size_t g = 0; g < K; ++g) {
      groups[g].add(cells[g]);
      result.assignment[g] = static_cast<int>(g);
    }
    for (std::size_t i = K; i < cells.size(); ++i) place(i);
  }

  // |s(a)| per cell, for the closure improvement checks (cells are
  // immutable for the whole call).
  std::vector<std::size_t> cell_bits;
  if (closure) {
    cell_bits.resize(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
      cell_bits[i] = cells[i].members->count();
  }

  // Incremental-waste Δ of moving cell i from g1 to g2, priced against the
  // live group states: removal strips the cell's unique bits from g1,
  // insertion grows g2's union by the cell's uncovered bits.
  const auto move_delta = [&](std::size_t i, const GroupState& g1,
                              const GroupState& g2) {
    const double p = cells[i].prob;
    const double sa = static_cast<double>(cell_bits[i]);
    const auto u = cells[i].members->count_and(g1.unique());
    const auto e = cells[i].members->count_and_not(g2.vec());
    return -(g1.prob() - p) * static_cast<double>(u) -
           p * (static_cast<double>(g1.cardinality()) - sa) +
           (g2.prob() + p) * static_cast<double>(e) +
           p * (static_cast<double>(g2.cardinality()) - sa);
  };

  // Steps 1–2 — re-assignment passes.
  //
  // Batch (Forgy) passes can oscillate: several cells may simultaneously
  // move toward the same stale snapshot vector and overshoot.  So we track
  // the total expected waste after every pass, remember the best
  // assignment seen, and stop once a window of passes brings no
  // improvement.
  double best_waste =
      TotalExpectedWaste(cells, result.assignment, static_cast<int>(K));
  Assignment best_assignment = result.assignment;
  std::size_t stale_passes = 0;
  constexpr std::size_t kPatience = 3;

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    ++result.iterations;
    bool moved = false;

    if (options.variant == KMeansVariant::kMacQueen) {
      for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto cur = static_cast<std::size_t>(result.assignment[i]);
        if (groups[cur].size() == 1) continue;  // last cell cannot move
        ++result.cell_visits;
        // Evaluate the cell against its own group with the cell taken out,
        // so "stay" and "move" compare the same marginal waste — without
        // the remove → scan → add round-trip the old inner loop paid even
        // when the cell stayed put (the common case).
        std::size_t next = cur;
        bool used_closure = false;
        if (closure) {
          int cand[kMaxCandidates];
          const std::size_t nc =
              BuildClosure(*options.neighbors, result.assignment, i,
                           static_cast<int>(cur), seed_groups, cand);
          if (nc <= kMaxCandidates) {
            result.distance_evals += nc + 1;
            std::size_t u = 0;
            const double d_stay = groups[cur].distance_to_excluding(cells[i], &u);
            double dist[kMaxCandidates];
            std::size_t cng[kMaxCandidates];
            BatchedGroupWaste(cells[i], groups, cand, nc, dist, cng);
            int best = static_cast<int>(cur);
            double best_d = d_stay;
            std::size_t best_e = 0;
            for (std::size_t j = 0; j < nc; ++j) {
              if (cand[j] == static_cast<int>(cur)) continue;
              if (dist[j] < best_d || (dist[j] == best_d && cand[j] < best)) {
                best_d = dist[j];
                best = cand[j];
                best_e = cng[j];
              }
            }
            if (best == static_cast<int>(cur)) {
              used_closure = true;  // stay — nothing to double-check
            } else {
              // Improvement check: price the move via the incremental
              // waste identity.  Removal strips the u unique bits from
              // cur; insertion grows the target union by best_e bits.  The
              // move is taken only if the total objective strictly drops —
              // otherwise the closure's view is too narrow and the exact
              // scan decides.
              const double p = cells[i].prob;
              const double sa = static_cast<double>(cell_bits[i]);
              const GroupState& g1 = groups[cur];
              const GroupState& g2 = groups[static_cast<std::size_t>(best)];
              const double dw1 =
                  -(g1.prob() - p) * static_cast<double>(u) -
                  p * (static_cast<double>(g1.cardinality()) - sa);
              const double dw2 =
                  (g2.prob() + p) * static_cast<double>(best_e) +
                  p * (static_cast<double>(g2.cardinality()) - sa);
              if (dw1 + dw2 < 0.0) {
                next = static_cast<std::size_t>(best);
                used_closure = true;
              }
            }
          }
        }
        if (!closure || !used_closure || options.closure_oracle) {
          const std::size_t exact = ClosestGroupExcluding(groups, cur, cells[i]);
          result.distance_evals += K;
          if (used_closure && next != exact) ++result.oracle_mismatches;
          if (closure && !used_closure) ++result.closure_fallbacks;
          next = exact;
        }
        if (used_closure) ++result.closure_hits;
        if (next != cur) {
          groups[cur].remove(cells[i]);
          groups[next].add(cells[i]);
          result.assignment[i] = static_cast<int>(next);
          moved = true;
        }
      }
    } else {
      // Forgy: distances against the vectors as they stood at the start of
      // the pass; all moves applied together afterwards.  Every proposal is
      // a pure function of the frozen pass-start state, so the scan is
      // embarrassingly parallel: each lane writes only its own proposal
      // slots, making the result bit-identical for any thread count.  The
      // proposals are then applied serially in cell order against the live
      // state, which keeps the "last cell cannot move" guard exact.
      //
      // Closure proposals read the frozen assignment too; the improvement
      // check moves to the serial apply loop below, where the live Δ can
      // be priced: with the global seed groups in every cell's closure,
      // ungated proposals pile the whole population onto a handful of
      // stale snapshot vectors (measured 11x waste blow-up), while the
      // live gate turns positive as a target fills and stops the stampede.
      // Oracle mode skips the gate — its contract is bit-identity with the
      // closure-off path, and exact Forgy applies proposals unconditionally.
      std::vector<std::size_t> proposed(cells.size());
      std::vector<std::size_t> evals(cells.size(), 0);  // per-cell distances
      std::vector<std::uint8_t> code;  // per-cell closure outcome, merged below
      if (closure) code.assign(cells.size(), 0);
      ParallelFor(
          cells.size(),
          [&](std::size_t i) {
            const auto cur = static_cast<std::size_t>(result.assignment[i]);
            std::size_t next = cur;
            bool used_closure = false;
            if (closure) {
              int cand[kMaxCandidates];
              const std::size_t nc =
                  BuildClosure(*options.neighbors, result.assignment, i,
                               static_cast<int>(cur), seed_groups, cand);
              if (nc <= kMaxCandidates) {
                evals[i] += nc + 1;
                double dist[kMaxCandidates];
                BatchedGroupWaste(cells[i], groups, cand, nc, dist, nullptr);
                int best = -1;
                double best_d = std::numeric_limits<double>::infinity();
                for (std::size_t j = 0; j < nc; ++j) {
                  const double d =
                      cand[j] == static_cast<int>(cur)
                          ? groups[cur].distance_to_excluding(cells[i])
                          : dist[j];
                  if (d < best_d || (d == best_d && cand[j] < best)) {
                    best_d = d;
                    best = cand[j];
                  }
                }
                next = static_cast<std::size_t>(best);
                used_closure = true;
              }
            }
            if (!closure || !used_closure || options.closure_oracle) {
              const std::size_t exact = ClosestGroupExcluding(groups, cur, cells[i]);
              evals[i] += K;
              if (closure) {
                if (used_closure && next != exact) code[i] |= 4;
                if (!used_closure) code[i] |= 2;
              }
              next = exact;
            }
            if (used_closure) code[i] |= 1;
            proposed[i] = next;
          },
          /*min_parallel=*/256, /*grain=*/64);
      result.cell_visits += cells.size();
      for (const std::size_t e : evals) result.distance_evals += e;
      if (closure) {
        for (const std::uint8_t c : code) {
          result.closure_hits += c & 1;
          result.closure_fallbacks += (c >> 1) & 1;
          result.oracle_mismatches += (c >> 2) & 1;
        }
      }
      Assignment next_assignment = result.assignment;
      for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto cur = static_cast<std::size_t>(result.assignment[i]);
        if (groups[cur].size() == 1) continue;
        const std::size_t next = proposed[i];
        if (next != cur) {
          if (closure && !options.closure_oracle &&
              move_delta(i, groups[cur], groups[next]) >= 0.0) {
            // Closure move fails the live improvement check — reject it
            // (it was priced on a stale snapshot).  Counted as a fallback:
            // the closure verdict did not stand on its own.
            ++result.closure_fallbacks;
            continue;
          }
          groups[cur].remove(cells[i]);
          groups[next].add(cells[i]);
          next_assignment[i] = static_cast<int>(next);
          moved = true;
        }
      }
      result.assignment = std::move(next_assignment);
    }

    if (!moved) {
      result.converged = true;
      break;
    }

    const double waste = TotalExpectedWaste(cells, result.assignment, static_cast<int>(K));
    if (waste < best_waste) {
      best_waste = waste;
      best_assignment = result.assignment;
      stale_passes = 0;
    } else if (++stale_passes >= kPatience) {
      break;  // oscillating without improvement
    }
  }

  if (TotalExpectedWaste(cells, result.assignment, static_cast<int>(K)) > best_waste)
    result.assignment = std::move(best_assignment);
  return result;
}

}  // namespace pubsub
