// When should a live broker re-cluster?
//
// GroupManager leaves the refresh decision to its caller; in a service
// setting that decision is policy, not plumbing, so it lives in one object
// with two triggers (§6 item 5 — groups "need to be constantly updated"):
//
//   * churned fraction — enough of the table changed since the last
//     refresh that the clustering no longer reflects it;
//   * waste ratio — deliveries since the last refresh wasted too large a
//     fraction of emitted messages, the observable symptom of a stale
//     clustering (only meaningful once pending churn exists: refreshing an
//     unchanged table cannot reduce waste and would spin).
//
// The waste window resets on refresh, so policy state at a refresh
// boundary is empty — which is why broker snapshots (taken at those
// boundaries) need not serialize it.
#pragma once

#include <cstddef>

namespace pubsub {

struct RefreshPolicyOptions {
  // Refresh when pending churn reaches this fraction of the table
  // (<= 0 disables the trigger).
  double churn_fraction = 0.05;
  // Refresh when wasted deliveries reach this fraction of the messages
  // emitted since the last refresh (<= 0 disables the trigger).
  double waste_ratio = 0.5;
  // Minimum emitted messages before the waste ratio is trusted.
  std::size_t min_messages = 200;
};

// Which trigger fired (for telemetry: the broker counts refreshes by
// cause).  Churn is checked first, so a window that trips both reports
// kChurn — the cheaper, more direct signal.
enum class RefreshTrigger { kNone, kChurn, kWaste };

class RefreshPolicy {
 public:
  explicit RefreshPolicy(const RefreshPolicyOptions& options = {})
      : options_(options) {}

  const RefreshPolicyOptions& options() const { return options_; }

  // Record one delivery's outcome into the current window.
  void on_publish(std::size_t emitted, std::size_t wasted) {
    window_emitted_ += emitted;
    window_wasted_ += wasted;
  }

  // Resets the waste window; call after every GroupManager::refresh().
  void on_refresh() {
    window_emitted_ = 0;
    window_wasted_ = 0;
  }

  RefreshTrigger trigger(std::size_t pending_churn, std::size_t table_size) const {
    if (pending_churn == 0 || table_size == 0) return RefreshTrigger::kNone;
    if (options_.churn_fraction > 0.0 &&
        static_cast<double>(pending_churn) >=
            options_.churn_fraction * static_cast<double>(table_size))
      return RefreshTrigger::kChurn;
    if (options_.waste_ratio > 0.0 && window_emitted_ >= options_.min_messages &&
        static_cast<double>(window_wasted_) >=
            options_.waste_ratio * static_cast<double>(window_emitted_))
      return RefreshTrigger::kWaste;
    return RefreshTrigger::kNone;
  }

  std::size_t window_emitted() const { return window_emitted_; }
  std::size_t window_wasted() const { return window_wasted_; }

 private:
  RefreshPolicyOptions options_;
  std::size_t window_emitted_ = 0;
  std::size_t window_wasted_ = 0;
};

}  // namespace pubsub
