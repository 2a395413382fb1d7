// K-Means and Forgy K-Means subscription clustering (§4.2, Figure 1).
//
//   0. Form initial K groups: the K most popular cells seed the groups,
//      every other cell joins the closest seed (expected-waste distance).
//   1. Re-assign each cell to the closest group.
//   2. Repeat until no cell moves (or an iteration cap).
//
// The MacQueen variant (`KMeansVariant::kMacQueen`, the paper's "K-means")
// updates a group's membership vector immediately when a cell moves; the
// Forgy variant recomputes distances against a snapshot of the vectors and
// applies all moves at the end of the pass.  A cell never leaves a group it
// is the last member of, so exactly K non-empty groups are maintained.
//
// *Cluster closures* (after "Fast Approximate K-Means via Cluster
// Closures", arXiv 1312.3061): instead of scanning all K groups per cell,
// each cell is evaluated only against its candidate closure — the groups
// of its grid-adjacent cells (Grid::cluster_neighbors), its own current
// group, and the first four groups as global seeds.  The exact scan remains as a
// fallback: it runs whenever the closure is empty, overflows the candidate
// buffer, or (MacQueen) the closure's best move fails the incremental
// waste-improvement check.  With `closure_oracle` the exact scan runs on
// every decision and its verdict is used, so the result is bit-identical
// to the exact path while mismatches are counted.
//
// The iteration is stop-anytime (§6 item 5): every pass leaves a feasible
// K-partition, so `max_iterations` caps the work of one call, and a warm
// start resumes from a prior assignment — the broker's churn refresh runs
// five MacQueen passes that way (core/group_manager).
#pragma once

#include <cstddef>
#include <vector>

#include "core/cluster_types.h"

namespace pubsub {

enum class KMeansVariant { kMacQueen, kForgy };

struct KMeansOptions {
  KMeansVariant variant = KMeansVariant::kMacQueen;
  std::size_t max_iterations = 100;
  // Optional warm start (non-owning; must outlive the call): a prior
  // assignment of the same cell list, with labels in [0, K) or -1 for
  // "place by nearest group".  This is the §4.2/§6 subscription-churn path:
  // seed with the previous clustering and run a few re-balancing passes
  // instead of re-clustering from scratch.
  const Assignment* warm_start = nullptr;

  // Closure acceleration.  `neighbors` (non-owning; must outlive the call)
  // is per-cell adjacency over the same cell indices —
  // Grid::cluster_neighbors(cells.size()) in production.  Ignored unless
  // `closure` is set.
  bool closure = false;
  const std::vector<std::vector<int>>* neighbors = nullptr;
  // Run the exact scan alongside every closure decision, count
  // disagreements (KMeansResult::oracle_mismatches) and use the exact
  // verdict — output becomes bit-identical to the closure-off path.
  bool closure_oracle = false;
};

struct KMeansResult {
  Assignment assignment;
  std::size_t iterations = 0;  // full re-assignment passes executed
  bool converged = false;

  // Work and closure accounting for this call.
  std::size_t cell_visits = 0;        // per-cell nearest-group evaluations
  // Cell-to-group distances evaluated: an exact scan costs K, a closure
  // evaluation its candidate count plus, in a re-assignment pass, the
  // cell's distance to its own group without it.  A decision that falls
  // back to (or, in oracle mode, also runs) the exact scan pays both.
  // Exact over closure is the algorithmic saving of arXiv 1312.3061 as a
  // count, independent of how fast one distance is.
  std::size_t distance_evals = 0;
  std::size_t closure_hits = 0;       // decisions served by the closure alone
  // Decisions the closure verdict did not serve on its own: exact-scan
  // re-decisions (empty/overflowed closure, failed MacQueen improvement
  // check) plus Forgy moves rejected by the apply-time improvement check.
  std::size_t closure_fallbacks = 0;
  std::size_t oracle_mismatches = 0;  // closure verdict != exact (oracle mode)
};

// `cells` must be ordered by decreasing popularity (Grid::top_cells
// provides this); the first K become the seeds.  K is clamped to the cell
// count.
KMeansResult KMeansCluster(const std::vector<ClusterCell>& cells, std::size_t K,
                           const KMeansOptions& options = {});

}  // namespace pubsub
