// Event→group matching (§4.6, Figures 5 and 6).
//
// Once the static clustering stage has produced multicast groups, every
// published event must be matched in real time:
//
//   * Grid-based (Fig. 5): locate the event's grid cell; if the cell's
//     hyper-cell was clustered, the associated group is a candidate.  The
//     message is multicast to the group when the interested fraction of
//     the group's members clears a threshold, otherwise (and for unmatched
//     cells) it is unicast to exactly the interested subscribers.
//
//   * No-Loss (Fig. 6): scan the K group areas in rank order (the paper's
//     search list A); of the areas containing the event pick the one with
//     the greatest weight, multicast to u(s), and unicast to interested
//     subscribers outside u(s).  By construction no group member is
//     uninterested.
//
// Matchers decide *who* gets the message and *how*; delivery cost is
// computed by sim/delivery.h from the decision.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/cluster_types.h"
#include "core/grid.h"
#include "core/match_scratch.h"
#include "core/noloss.h"
#include "obs/metrics.h"
#include "workload/types.h"

namespace pubsub {

// Outcome of matching one event.  Zero-copy: both spans alias storage owned
// elsewhere (DESIGN.md §10).
struct MatchDecision {
  // Multicast group used, or -1 for pure unicast delivery.
  int group_id = -1;
  // Members of that group (empty when group_id == -1).  Points into the
  // matcher; valid until the matcher is destroyed.
  std::span<const SubscriberId> group_members;
  // Subscribers served by individual unicast messages.  Aliases either the
  // caller's `interested` span (pure-unicast fallback) or the scratch the
  // match ran against; valid until that scratch's next match() (the
  // two-argument overloads use the calling thread's scratch).
  std::span<const SubscriberId> unicast_targets;
};

// Matching for the grid-based algorithms (Fig. 5).
class GridMatcher {
 public:
  // `assignment` maps the first assignment.size() hyper-cells of `grid`
  // (its popularity order) to groups 0..num_groups-1; hyper-cells beyond it
  // were not clustered and fall back to unicast.
  //
  // `min_interest_fraction` is the Fig. 5 threshold: multicast only when
  // |interested ∩ group| / |group| >= threshold.  0 reproduces the paper's
  // base behaviour (always multicast when a group is matched).
  //
  // With `metrics`, every match() updates the matcher_* counter family
  // (cells probed, hyper-cell hits, group candidates vs. confirmed
  // multicasts).  The sharded counters tolerate concurrent match() calls
  // from the batch-matching parallel path.
  GridMatcher(const Grid& grid, const Assignment& assignment, int num_groups,
              double min_interest_fraction = 0.0,
              MetricsRegistry* metrics = nullptr);

  int num_groups() const { return static_cast<int>(groups_.size()); }
  std::span<const SubscriberId> group_members(int g) const { return groups_[static_cast<std::size_t>(g)]; }
  // Word-packed membership of group g (over the grid's subscriber
  // population at build time); the broker's completion kernel runs AND-NOT
  // set difference against these words.
  const BitVector& group_bits(int g) const { return group_bits_[static_cast<std::size_t>(g)]; }

  // `interested` must be the exact interested-subscriber set for `p`
  // (from the subscription index).  The grid matcher needs no scratch
  // storage — its unicast fallback aliases `interested` — so both
  // overloads are allocation-free; the scratch one exists for call-site
  // symmetry with NoLossMatcher.
  MatchDecision match(const Point& p, std::span<const SubscriberId> interested) const;
  MatchDecision match(const Point& p, std::span<const SubscriberId> interested,
                      MatchScratch& scratch) const {
    (void)scratch;
    return match(p, interested);
  }

 private:
  const Grid* grid_;
  std::vector<int> group_of_hyper_;  // -1 = unclustered
  std::vector<std::vector<SubscriberId>> groups_;
  std::vector<BitVector> group_bits_;
  double min_interest_fraction_;
  // Telemetry (all nullable; see obs/metrics.h).
  Counter* c_lookups_ = nullptr;
  Counter* c_cells_probed_ = nullptr;
  Counter* c_hyper_hits_ = nullptr;
  Counter* c_candidates_ = nullptr;
  Counter* c_confirmed_ = nullptr;
};

// Matching for the No-Loss algorithm (Fig. 6).
//
// The paper ranks areas — both for choosing the K groups and for picking
// among the areas containing an event — by the weight w(s) = p_p(s)·|u(s)|.
// Pure weight ranking favors wide areas that few subscribers fully
// contain, which saves almost no unicasts; the defaults here therefore
// rank group *selection* by expected savings p_p(s)·(|u(s)|−1) and pick
// the containing area with the most members.  The paper-literal behaviour
// is available through the options (bench_ablation compares them).
//
// Pick rule: match() scans the K selected areas in rank order (group id
// order, as ranked by the selection rule) with Rect::contains and keeps
// the first best under the pick rule, so a tie goes to the higher-ranked
// area.
struct NoLossMatcherOptions {
  enum class Selection { kSavings, kWeight };
  enum class Pick { kMembers, kWeight };
  Selection selection = Selection::kSavings;
  Pick pick = Pick::kMembers;
};

class NoLossMatcher {
 public:
  // Uses the `num_groups` best areas of `result` under the selection rule.
  NoLossMatcher(const NoLossResult& result, std::size_t num_groups,
                NoLossMatcherOptions options = {},
                MetricsRegistry* metrics = nullptr);

  int num_groups() const { return static_cast<int>(groups_.size()); }
  std::span<const SubscriberId> group_members(int g) const { return members_[static_cast<std::size_t>(g)]; }

  // The two-argument overload matches against the calling thread's scratch
  // (see MatchScratch::thread_local_instance); the three-argument one uses
  // the caller's.  Unicast completion preserves the order of `interested`.
  MatchDecision match(const Point& p, std::span<const SubscriberId> interested) const;
  MatchDecision match(const Point& p, std::span<const SubscriberId> interested,
                      MatchScratch& scratch) const;

  // True iff no group contains an uninterested subscriber for any event in
  // its rectangle (trivially true by construction; exposed for tests).
  const NoLossGroup& group(int g) const { return groups_[static_cast<std::size_t>(g)]; }

 private:
  std::vector<NoLossGroup> groups_;
  std::vector<std::vector<SubscriberId>> members_;
  NoLossMatcherOptions options_;
  Counter* c_lookups_ = nullptr;
  Counter* c_areas_hit_ = nullptr;
  Counter* c_confirmed_ = nullptr;
};

}  // namespace pubsub
