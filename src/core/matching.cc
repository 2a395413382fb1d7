#include "core/matching.h"

#include <algorithm>
#include <stdexcept>

namespace pubsub {

GridMatcher::GridMatcher(const Grid& grid, const Assignment& assignment,
                         int num_groups, double min_interest_fraction,
                         MetricsRegistry* metrics)
    : grid_(&grid), min_interest_fraction_(min_interest_fraction) {
  if (metrics != nullptr) {
    c_lookups_ = metrics->counter("matcher_lookups_total",
                                  "match() calls against the grid matcher");
    c_cells_probed_ = metrics->counter(
        "matcher_cells_probed_total", "grid cells located for event lookups");
    c_hyper_hits_ = metrics->counter(
        "matcher_hyper_cell_hits_total",
        "lookups whose cell belongs to a clustered hyper-cell");
    c_candidates_ = metrics->counter(
        "matcher_group_candidates_total",
        "lookups that produced a candidate multicast group");
    c_confirmed_ = metrics->counter(
        "matcher_group_confirmed_total",
        "candidates that cleared the interest threshold (multicast chosen)");
  }
  if (assignment.size() > grid.hyper_cells().size())
    throw std::invalid_argument("GridMatcher: assignment larger than hyper-cell set");
  if (num_groups < 0) throw std::invalid_argument("GridMatcher: negative group count");

  group_of_hyper_.assign(grid.hyper_cells().size(), -1);
  group_bits_.assign(static_cast<std::size_t>(num_groups),
                     BitVector(grid.num_subscribers()));
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    const int g = assignment[i];
    if (g < 0) continue;
    if (g >= num_groups) throw std::invalid_argument("GridMatcher: group out of range");
    group_of_hyper_[i] = g;
    group_bits_[static_cast<std::size_t>(g)] |= grid.hyper_cells()[i].members;
  }

  groups_.resize(static_cast<std::size_t>(num_groups));
  for (int g = 0; g < num_groups; ++g) {
    auto& members = groups_[static_cast<std::size_t>(g)];
    const BitVector& bits = group_bits_[static_cast<std::size_t>(g)];
    members.reserve(bits.count());
    bits.for_each_set([&members](std::size_t i) {
      members.push_back(static_cast<SubscriberId>(i));
    });
  }
}

MatchDecision GridMatcher::match(const Point& p,
                                 std::span<const SubscriberId> interested) const {
  MatchDecision d;
  Inc(c_lookups_);
  Inc(c_cells_probed_);
  const std::int64_t cell = grid_->cell_of(p);
  const int hyper = grid_->hyper_cell_of(cell);
  const int g = hyper >= 0 ? group_of_hyper_[static_cast<std::size_t>(hyper)] : -1;
  if (hyper >= 0) Inc(c_hyper_hits_);

  if (g >= 0) {
    Inc(c_candidates_);
    const auto& members = groups_[static_cast<std::size_t>(g)];
    // Every interested subscriber intersects the event's cell, hence is in
    // the matched group; the fraction decides multicast vs unicast.
    const double fraction =
        members.empty() ? 0.0
                        : static_cast<double>(interested.size()) /
                              static_cast<double>(members.size());
    if (!members.empty() && fraction >= min_interest_fraction_) {
      Inc(c_confirmed_);
      d.group_id = g;
      d.group_members = members;
      return d;
    }
  }
  // Pure-unicast fallback: alias the caller's interested set (every
  // interested subscriber is a unicast target — no copy needed).
  d.unicast_targets = interested;
  return d;
}

NoLossMatcher::NoLossMatcher(const NoLossResult& result, std::size_t num_groups,
                             NoLossMatcherOptions options,
                             MetricsRegistry* metrics)
    : options_(options) {
  if (metrics != nullptr) {
    c_lookups_ = metrics->counter("noloss_lookups_total",
                                  "match() calls against the no-loss matcher");
    c_areas_hit_ = metrics->counter(
        "noloss_areas_hit_total", "group rectangles stabbed by event lookups");
    c_confirmed_ = metrics->counter("noloss_group_confirmed_total",
                                    "lookups that chose a multicast group");
  }
  const std::size_t n = std::min(num_groups, result.groups.size());
  // Rank the pool under the selection rule instead of trusting the caller's
  // ordering: NoLossCluster emits a weight-sorted pool, but hand-built or
  // deserialized pools need not be sorted, and kWeight used to truncate
  // such pools to an arbitrary prefix.  The stable sort is a no-op on
  // already-sorted input, so NoLossCluster-fed matchers are unchanged.
  const bool by_weight =
      options_.selection == NoLossMatcherOptions::Selection::kWeight;
  std::vector<const NoLossGroup*> ranked;
  ranked.reserve(result.groups.size());
  for (const NoLossGroup& g : result.groups) ranked.push_back(&g);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [by_weight](const NoLossGroup* a, const NoLossGroup* b) {
                     return by_weight ? a->weight > b->weight
                                      : a->savings() > b->savings();
                   });
  groups_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) groups_.push_back(*ranked[i]);

  members_.resize(n);
  for (std::size_t g = 0; g < n; ++g) {
    groups_[g].subscribers.for_each_set([this, g](std::size_t i) {
      members_[g].push_back(static_cast<SubscriberId>(i));
    });
  }
}

MatchDecision NoLossMatcher::match(const Point& p,
                                   std::span<const SubscriberId> interested) const {
  return match(p, interested, MatchScratch::thread_local_instance());
}

MatchDecision NoLossMatcher::match(const Point& p,
                                   std::span<const SubscriberId> interested,
                                   MatchScratch& scratch) const {
  MatchDecision d;
  Inc(c_lookups_);

  // Scan list A in rank order; only a strictly better area replaces the
  // best so far, so ties go to the higher rank.
  std::size_t hits = 0;
  int best = -1;
  const bool by_members = options_.pick == NoLossMatcherOptions::Pick::kMembers;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    if (!groups_[g].rect.contains(p)) continue;
    ++hits;
    const auto b = static_cast<std::size_t>(best);
    // |u(s)| is the size of the extracted member list — O(1), instead of a
    // popcount over the membership words on every comparison.
    if (best == -1 || (by_members ? members_[g].size() > members_[b].size()
                                  : groups_[g].weight > groups_[b].weight))
      best = static_cast<int>(g);
  }
  Inc(c_areas_hit_, hits);

  if (best == -1) {
    d.unicast_targets = interested;
    return d;
  }

  const NoLossGroup& grp = groups_[static_cast<std::size_t>(best)];
  Inc(c_confirmed_);
  d.group_id = best;
  d.group_members = members_[static_cast<std::size_t>(best)];
  // Interested subscribers outside u(s) still get unicasts (Fig. 6).  The
  // per-id bit test preserves the caller's `interested` order.
  scratch.unicast.clear();
  for (const SubscriberId s : interested)
    if (!grp.subscribers.test(static_cast<std::size_t>(s)))
      scratch.unicast.push_back(s);
  d.unicast_targets = scratch.unicast;
  return d;
}

}  // namespace pubsub
