// Fleet health/SLO watchdog + state-invariant auditor (fleet observability
// tentpole, part 3).
//
// Two independent detectors, both designed to run off the serve EventLoop
// on a timer and both free of broker/serve dependencies so they unit-test
// against raw histograms:
//
//   * check() — per-shard publish-latency skew and stall-backlog growth.
//     Each shard's p99 (read from its `fleet_shard_publish_ms` histogram
//     via HistogramQuantile) is compared against the fleet-wide median
//     p99; a shard past `skew_ratio` times the median (and past a 1 ms
//     noise floor, with at least 16 observations) is a slow-shard alert.
//     A stall backlog at or above `max_backlog` pending records is a
//     backlog alert.
//
//   * audit() — digest/seq invariant sampling.  The fleet's bookkeeping
//     says shard k must sit at `expected_seq`; a shard whose actual seq
//     disagrees, or whose digest changed while its seq did not, has
//     mutated outside the sequenced command stream (or lost a mutation).
//     This catches divergence in minutes instead of at --oracle-check
//     time.
//
// Both detectors are edge-triggered: a condition alerts once when it
// appears and re-arms only after it clears, so a persistently slow shard
// does not flood the log.  Watchdog self-metrics are kRuntime — the
// deterministic scrape subset is unaffected by when timers fire.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace pubsub {

enum class WatchdogAlertKind : std::uint8_t {
  kSlowShard = 0,
  kStallBacklog = 1,
  kDigestDivergence = 2,
};

const char* WatchdogAlertKindName(WatchdogAlertKind kind);

struct WatchdogAlert {
  WatchdogAlertKind kind = WatchdogAlertKind::kSlowShard;
  std::int32_t shard = -1;  // -1 = fleet-wide (backlog)
  double at_ms = 0.0;       // loop time the detector fired
  std::string detail;       // human-readable, for stderr / `top`
};

struct WatchdogOptions {
  // Slow-shard: alert when shard p99 > max(1 ms, skew_ratio * median p99
  // across shards) with >= 16 observations.
  double skew_ratio = 4.0;
  // Stall backlog: alert at >= max_backlog queued records.
  std::size_t max_backlog = 64;
};

// Quantile estimate from prometheus-style histogram state: `buckets` holds
// non-cumulative counts, one per upper bound plus a trailing +Inf bucket
// (Histogram::bucket_counts() layout).  Linear interpolation inside the
// containing bucket; the +Inf bucket clamps to the last finite bound.
// Returns 0 when the histogram is empty.
double HistogramQuantile(const std::vector<double>& bounds,
                         const std::vector<std::uint64_t>& buckets, double q);

// One shard's audit inputs (see CollectShardAudit in serve/fleet.h).
struct ShardAuditSample {
  std::int32_t shard = -1;
  std::uint64_t seq = 0;           // shard's actual sequence number
  std::uint64_t expected_seq = 0;  // fleet bookkeeping for this shard
  std::uint64_t digest = 0;        // shard state digest
};

class FleetWatchdog {
 public:
  // `metrics` may be null (alerts still accumulate, nothing is counted).
  explicit FleetWatchdog(const WatchdogOptions& options,
                         MetricsRegistry* metrics = nullptr);

  // Latency-skew + backlog detector.  `shard_publish[k]` is shard k's
  // publish-latency histogram; every entry is non-null.
  // Returns the alerts newly raised by this check.
  std::vector<WatchdogAlert> check(
      double now_ms, const std::vector<const Histogram*>& shard_publish,
      std::size_t backlog);

  // Invariant auditor.  Returns the alerts newly raised by this audit.
  std::vector<WatchdogAlert> audit(double now_ms,
                                   const std::vector<ShardAuditSample>& samples);

  // Every alert ever raised, in order.
  const std::vector<WatchdogAlert>& alerts() const { return alerts_; }
  std::uint64_t checks() const { return checks_; }
  std::uint64_t audits() const { return audits_; }

 private:
  void raise(std::vector<WatchdogAlert>* out, WatchdogAlert alert);

  WatchdogOptions options_;
  std::uint64_t checks_ = 0;
  std::uint64_t audits_ = 0;
  std::vector<WatchdogAlert> alerts_;

  // Edge-trigger state.
  std::vector<bool> slow_flagged_;
  bool backlog_flagged_ = false;
  struct Baseline {
    bool valid = false;
    bool flagged = false;
    std::uint64_t seq = 0;
    std::uint64_t digest = 0;
  };
  std::vector<Baseline> baselines_;

  // Self-telemetry (kRuntime; null when no registry was supplied).
  Counter* c_checks_ = nullptr;
  Counter* c_audits_ = nullptr;
  Counter* c_alerts_slow_ = nullptr;
  Counter* c_alerts_backlog_ = nullptr;
  Counter* c_alerts_divergence_ = nullptr;
};

}  // namespace pubsub
