// Multicast-group lifecycle management under subscription churn
// (§4.2: iterative clustering absorbs membership changes with "a number of
// re-balancing iterations"; §6 item 5: "clustering groups need to be
// constantly updated, since subscribers change their preferences, join and
// leave the network").
//
// GroupManager owns the moving parts of a deployment — the workload copy,
// the grid, the K-means assignment and the matcher — and exposes a churn
// API:
//
//   add_subscriber / update_subscriber / remove_subscriber
//       record changes (cheap; the live matcher keeps serving).
//   refresh()
//       rebuilds the grid for the churned workload and repairs the
//       clustering: each new hyper-cell inherits the group that owned the
//       plurality of its lattice cells, then five MacQueen re-balancing
//       passes run from that warm start.  Once half the table has churned
//       since the last full build, refresh falls back to a cold
//       re-clustering (warm starts stop paying off once the inherited
//       structure is mostly stale).
//
// The matcher is swapped atomically at the end of refresh(); between
// refreshes, matching uses the last clustering (new subscribers are not
// yet in any group and are served by the caller's exact-match unicast
// path, exactly like unfed cells).
//
// The between-refresh window is a load-bearing contract: the matcher knows
// nothing about subscribers added or updated since the last refresh, and a
// multicast decision covers only the matched group's members.  A caller
// that computes the exact interested set from the *live* table (e.g. the
// broker service layer) must therefore unicast to interested \ group —
// otherwise a not-yet-refreshed subscriber silently loses events.
// test_group_manager.cc pins this recipe down; broker/broker.cc relies on
// it.
#pragma once

#include <cstddef>
#include <memory>

#include "core/grid.h"
#include "core/matching.h"
#include "obs/metrics.h"
#include "workload/publication_model.h"
#include "workload/types.h"

namespace pubsub {

struct GroupManagerOptions {
  std::size_t num_groups = 100;
  std::size_t max_cells = 6000;
  double matcher_threshold = 0.0;
  // Closure-accelerated assignment (core/kmeans.h): candidate groups come
  // from grid adjacency instead of a full K-scan, with exact-scan
  // fallback.  It cuts the per-refresh k-means stall at large K.
  bool closure = false;
  // Telemetry sink (nullable).  The manager publishes churn/refresh
  // gauges + counters here and hands the registry to every matcher it
  // builds; the broker injects its per-instance registry.
  MetricsRegistry* metrics = nullptr;
};

class GroupManager {
 public:
  // Copies the workload; `pub` must outlive the manager.
  GroupManager(Workload workload, const PublicationModel& pub,
               const GroupManagerOptions& options = {});

  // Snapshot restore: rebuilds the grid deterministically from `workload`
  // and adopts `assignment` verbatim (no re-clustering), so the restored
  // matcher is bit-identical to the one captured.  `assignment` must have
  // exactly one label per clustered hyper-cell of the rebuilt grid
  // (std::invalid_argument otherwise — the snapshot belongs to a different
  // workload or options set).
  GroupManager(Workload workload, const PublicationModel& pub,
               const GroupManagerOptions& options, Assignment assignment,
               std::size_t churn_since_full_build);

  const Workload& workload() const { return workload_; }
  const Grid& grid() const { return *grid_; }
  const GridMatcher& matcher() const { return *matcher_; }
  const Assignment& assignment() const { return assignment_; }

  // --- churn API --------------------------------------------------------
  SubscriberId add_subscriber(NodeId node, const Rect& interest);
  void update_subscriber(SubscriberId id, const Rect& interest);
  // Removal keeps the id slot (membership vectors stay aligned) with an
  // empty interest; the subscriber matches nothing from the next refresh.
  void remove_subscriber(SubscriberId id);

  // Changes recorded since the last refresh.
  std::size_t pending_churn() const { return pending_churn_; }
  // Changes accumulated since the last cold (full) build; snapshotted and
  // restored by the broker so warm/cold refresh decisions replay exactly.
  std::size_t churn_since_full_build() const { return churn_since_full_build_; }

  struct RefreshStats {
    std::size_t churned = 0;
    bool full_rebuild = false;
    std::size_t iterations = 0;  // k-means passes executed
    std::size_t cell_visits = 0;
  };
  RefreshStats refresh();

 private:
  void rebuild(bool warm);
  void make_matcher(std::size_t num_cells);
  void init_metrics();
  void publish_churn_gauges();

  Workload workload_;
  const PublicationModel* pub_;
  GroupManagerOptions options_;
  std::unique_ptr<Grid> grid_;
  Assignment assignment_;
  std::unique_ptr<GridMatcher> matcher_;
  std::size_t pending_churn_ = 0;
  std::size_t churn_since_full_build_ = 0;
  std::size_t last_iterations_ = 0;
  std::size_t last_cell_visits_ = 0;

  // Telemetry (nullable; see obs/metrics.h).
  Counter* c_refreshes_warm_ = nullptr;
  Counter* c_refreshes_cold_ = nullptr;
  Counter* c_kmeans_passes_ = nullptr;
  Counter* c_kmeans_cell_visits_ = nullptr;
  Counter* c_kmeans_closure_hits_ = nullptr;
  Counter* c_kmeans_closure_fallbacks_ = nullptr;
  Gauge* g_pending_churn_ = nullptr;
  Gauge* g_churn_since_full_ = nullptr;
  Gauge* g_last_churned_ = nullptr;
  Gauge* g_last_iterations_ = nullptr;
  Gauge* g_clustered_cells_ = nullptr;
  Gauge* g_table_size_ = nullptr;
};

}  // namespace pubsub
