#include "core/group_manager.h"

#include <stdexcept>
#include <string>
#include <vector>

#include "core/kmeans.h"

namespace pubsub {
namespace {

// MacQueen re-balancing passes per warm refresh (§4.2's "a number of
// re-balancing iterations").
constexpr std::size_t kRebalancePasses = 5;
// Fall back to cold re-clustering once this fraction of the table churned
// since the last full build.
constexpr double kFullRebuildFraction = 0.5;

}  // namespace

GroupManager::GroupManager(Workload workload, const PublicationModel& pub,
                           const GroupManagerOptions& options)
    : workload_(std::move(workload)), pub_(&pub), options_(options) {
  if (options_.num_groups == 0)
    throw std::invalid_argument("GroupManager: num_groups must be positive");
  init_metrics();
  rebuild(/*warm=*/false);
  publish_churn_gauges();
}

GroupManager::GroupManager(Workload workload, const PublicationModel& pub,
                           const GroupManagerOptions& options,
                           Assignment assignment,
                           std::size_t churn_since_full_build)
    : workload_(std::move(workload)),
      pub_(&pub),
      options_(options),
      churn_since_full_build_(churn_since_full_build) {
  if (options_.num_groups == 0)
    throw std::invalid_argument("GroupManager: num_groups must be positive");
  init_metrics();
  grid_ = std::make_unique<Grid>(workload_, *pub_);
  const std::size_t num_cells = grid_->top_cells(options_.max_cells).size();
  if (assignment.size() != num_cells)
    throw std::invalid_argument(
        "GroupManager: snapshot assignment does not match this workload's "
        "grid (" + std::to_string(assignment.size()) + " labels for " +
        std::to_string(num_cells) + " cells)");
  assignment_ = std::move(assignment);
  make_matcher(num_cells);
  publish_churn_gauges();
}

void GroupManager::init_metrics() {
  MetricsRegistry* m = options_.metrics;
  if (m == nullptr) return;
  c_refreshes_warm_ = m->counter("groups_refresh_warm_total",
                                 "warm (incremental) re-clustering refreshes");
  c_refreshes_cold_ = m->counter("groups_refresh_cold_total",
                                 "cold (full rebuild) refreshes");
  g_pending_churn_ = m->gauge("groups_pending_churn",
                              "churn commands recorded since the last refresh");
  g_churn_since_full_ =
      m->gauge("groups_churn_since_full_build",
               "churn accumulated since the last cold build");
  g_last_churned_ = m->gauge("groups_refresh_last_churned",
                             "churn absorbed by the most recent refresh");
  g_last_iterations_ = m->gauge("groups_refresh_last_iterations",
                                "k-means passes run by the most recent rebuild");
  c_kmeans_passes_ =
      m->counter("kmeans_passes_total", "k-means re-assignment passes executed");
  c_kmeans_cell_visits_ = m->counter(
      "kmeans_cell_visits_total", "per-cell nearest-group evaluations");
  c_kmeans_closure_hits_ =
      m->counter("kmeans_closure_hits_total",
                 "cell decisions served by the candidate closure alone");
  c_kmeans_closure_fallbacks_ =
      m->counter("kmeans_closure_fallbacks_total",
                 "cell decisions that fell back to the exact group scan");
  g_clustered_cells_ = m->gauge("groups_clustered_cells",
                                "hyper-cells covered by the live clustering");
  g_table_size_ =
      m->gauge("groups_table_size", "subscription table slots (incl. tombstones)");
}

void GroupManager::publish_churn_gauges() {
  Set(g_pending_churn_, static_cast<double>(pending_churn_));
  Set(g_churn_since_full_, static_cast<double>(churn_since_full_build_));
  Set(g_table_size_, static_cast<double>(workload_.num_subscribers()));
  Set(g_clustered_cells_, static_cast<double>(assignment_.size()));
}

SubscriberId GroupManager::add_subscriber(NodeId node, const Rect& interest) {
  if (interest.dims() != workload_.space.dims())
    throw std::invalid_argument("GroupManager: interest dimensionality mismatch");
  Subscriber s;
  s.node = node;
  s.interest = interest;
  workload_.subscribers.push_back(std::move(s));
  ++pending_churn_;
  publish_churn_gauges();
  return static_cast<SubscriberId>(workload_.subscribers.size() - 1);
}

void GroupManager::update_subscriber(SubscriberId id, const Rect& interest) {
  if (id < 0 || static_cast<std::size_t>(id) >= workload_.num_subscribers())
    throw std::out_of_range("GroupManager: bad subscriber id");
  if (interest.dims() != workload_.space.dims())
    throw std::invalid_argument("GroupManager: interest dimensionality mismatch");
  workload_.subscribers[static_cast<std::size_t>(id)].interest = interest;
  ++pending_churn_;
  publish_churn_gauges();
}

void GroupManager::remove_subscriber(SubscriberId id) {
  if (id < 0 || static_cast<std::size_t>(id) >= workload_.num_subscribers())
    throw std::out_of_range("GroupManager: bad subscriber id");
  // Tombstone: an empty rectangle intersects no cell.
  workload_.subscribers[static_cast<std::size_t>(id)].interest =
      Rect(std::vector<Interval>(workload_.space.dims(), Interval()));
  ++pending_churn_;
  publish_churn_gauges();
}

GroupManager::RefreshStats GroupManager::refresh() {
  RefreshStats stats;
  stats.churned = pending_churn_;
  churn_since_full_build_ += pending_churn_;
  pending_churn_ = 0;

  const bool warm =
      static_cast<double>(churn_since_full_build_) <
      kFullRebuildFraction * static_cast<double>(workload_.num_subscribers());
  stats.full_rebuild = !warm;
  rebuild(warm);
  if (!warm) churn_since_full_build_ = 0;
  stats.iterations = last_iterations_;
  stats.cell_visits = last_cell_visits_;

  Inc(warm ? c_refreshes_warm_ : c_refreshes_cold_);
  Set(g_last_churned_, static_cast<double>(stats.churned));
  Set(g_last_iterations_, static_cast<double>(stats.iterations));
  publish_churn_gauges();
  return stats;
}

void GroupManager::rebuild(bool warm) {
  auto new_grid = std::make_unique<Grid>(workload_, *pub_);
  const std::vector<ClusterCell> cells = new_grid->top_cells(options_.max_cells);

  KMeansOptions kopt;
  kopt.closure = options_.closure;
  std::vector<std::vector<int>> neighbors;
  if (options_.closure) {
    neighbors = new_grid->cluster_neighbors(cells.size());
    kopt.neighbors = &neighbors;
  }

  Assignment inherited;
  if (warm && grid_ != nullptr) {
    // Each new hyper-cell inherits the plurality group of its lattice
    // cells under the previous clustering.
    inherited.assign(cells.size(), -1);
    std::vector<int> votes(options_.num_groups);
    for (std::size_t h = 0; h < inherited.size(); ++h) {
      std::fill(votes.begin(), votes.end(), 0);
      int best = -1, best_votes = 0;
      for (const std::int64_t cell : new_grid->hyper_cells()[h].cells) {
        const int old_h = grid_->hyper_cell_of(cell);
        if (old_h < 0 || static_cast<std::size_t>(old_h) >= assignment_.size())
          continue;
        const int g = assignment_[static_cast<std::size_t>(old_h)];
        if (g < 0) continue;
        if (++votes[static_cast<std::size_t>(g)] > best_votes) {
          best_votes = votes[static_cast<std::size_t>(g)];
          best = g;
        }
      }
      inherited[h] = best;
    }
    kopt.warm_start = &inherited;
    kopt.max_iterations = kRebalancePasses;
  }

  const KMeansResult result = KMeansCluster(cells, options_.num_groups, kopt);
  last_iterations_ = result.iterations;
  last_cell_visits_ = result.cell_visits;
  Inc(c_kmeans_passes_, result.iterations);
  Inc(c_kmeans_cell_visits_, result.cell_visits);
  Inc(c_kmeans_closure_hits_, result.closure_hits);
  Inc(c_kmeans_closure_fallbacks_, result.closure_fallbacks);

  grid_ = std::move(new_grid);
  assignment_ = result.assignment;
  make_matcher(cells.size());
}

void GroupManager::make_matcher(std::size_t num_cells) {
  matcher_ = std::make_unique<GridMatcher>(
      *grid_, assignment_,
      static_cast<int>(std::min<std::size_t>(options_.num_groups,
                                             std::max<std::size_t>(num_cells, 1))),
      options_.matcher_threshold, options_.metrics);
}

}  // namespace pubsub
