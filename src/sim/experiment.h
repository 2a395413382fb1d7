// Experiment harness: shared event sampling, baseline evaluation and the
// paper's "improvement percentage" normalization (§5.2):
//
//   0 %   improvement = unicast cost,
//   100 % improvement = ideal multicast cost (per-event exact groups),
//   improvement(c)    = (unicast − c) / (unicast − ideal) · 100.
//
// All strategies are evaluated over the *same* pre-sampled event stream so
// comparisons are paired.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "core/matching.h"
#include "sim/delivery.h"
#include "workload/publication_model.h"

namespace pubsub {

struct EventSample {
  Publication pub;
  std::vector<SubscriberId> interested;
};

// Draw `count` events and precompute their interested sets.
std::vector<EventSample> SampleEvents(const DeliverySimulator& sim,
                                      const PublicationModel& model,
                                      std::size_t count, Rng& rng);

struct BaselineCosts {
  double unicast = 0.0;
  double broadcast = 0.0;
  double ideal = 0.0;      // network-supported, per-event exact groups
  double ideal_app = 0.0;  // application-level flavor
  std::size_t events = 0;
};

BaselineCosts EvaluateBaselines(DeliverySimulator& sim,
                                std::span<const EventSample> events,
                                bool with_applevel_ideal = false);

// (unicast − cost) / (unicast − ideal) · 100; clamps nothing — a strategy
// worse than unicast reports a negative improvement, as in the paper's
// plots.
double ImprovementPercent(double cost, const BaselineCosts& base);

// Aggregate result of running one matcher over an event stream.
struct ClusteredCosts {
  double network = 0.0;   // network-supported multicast delivery cost
  double applevel = 0.0;  // application-level delivery cost
  std::size_t multicast_events = 0;
  std::size_t unicast_events = 0;
  std::size_t wasted_deliveries = 0;  // messages to uninterested subscribers
};

using MatchFn =
    std::function<MatchDecision(const Point&, std::span<const SubscriberId>)>;

// Match decisions and per-event costs are computed in a batch over
// ThreadPool::global() (the per-event costs are summed serially and in
// event order, so totals are bit-identical for any thread count).  When the
// global pool has more than one thread, `match` must be safe to invoke
// concurrently — the built-in matchers are; a stateful custom lambda is
// only safe at --threads=1.
ClusteredCosts EvaluateMatcher(DeliverySimulator& sim,
                               std::span<const EventSample> events,
                               const MatchFn& match);

inline MatchFn MatcherFn(const GridMatcher& m) {
  return [&m](const Point& p, std::span<const SubscriberId> interested) {
    return m.match(p, interested);
  };
}
inline MatchFn MatcherFn(const NoLossMatcher& m) {
  return [&m](const Point& p, std::span<const SubscriberId> interested) {
    return m.match(p, interested);
  };
}

}  // namespace pubsub
