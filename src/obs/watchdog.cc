#include "obs/watchdog.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace pubsub {
namespace {

// Slow-shard noise guards: a p99 under kMinP99Ms, or one read from fewer
// than kMinSamples observations, never alerts.
constexpr double kMinP99Ms = 1.0;
constexpr std::uint64_t kMinSamples = 16;

}  // namespace

const char* WatchdogAlertKindName(WatchdogAlertKind kind) {
  switch (kind) {
    case WatchdogAlertKind::kSlowShard:
      return "slow_shard";
    case WatchdogAlertKind::kStallBacklog:
      return "stall_backlog";
    case WatchdogAlertKind::kDigestDivergence:
      return "digest_divergence";
  }
  return "unknown";
}

double HistogramQuantile(const std::vector<double>& bounds,
                         const std::vector<std::uint64_t>& buckets, double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t b : buckets) total += b;
  if (total == 0 || bounds.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation, 1-based; q = 0 still needs rank 1.
  const double target = std::max(1.0, q * static_cast<double>(total));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cum += buckets[i];
    if (static_cast<double>(cum) < target) continue;
    if (i >= bounds.size()) return bounds.back();  // +Inf bucket: clamp
    const double lower = i == 0 ? 0.0 : bounds[i - 1];
    const double upper = bounds[i];
    const std::uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) return upper;
    const double before = static_cast<double>(cum - in_bucket);
    const double frac = (target - before) / static_cast<double>(in_bucket);
    return lower + (upper - lower) * std::clamp(frac, 0.0, 1.0);
  }
  return bounds.back();
}

FleetWatchdog::FleetWatchdog(const WatchdogOptions& options,
                             MetricsRegistry* metrics)
    : options_(options) {
  if (metrics == nullptr) return;
  // All kRuntime: alert counts depend on wall-clock timer firings, never
  // part of the deterministic scrape subset.
  c_checks_ = metrics->counter("watchdog_checks_total",
                               "Watchdog latency/backlog checks run",
                               MetricStability::kRuntime);
  c_audits_ = metrics->counter("watchdog_audits_total",
                               "Watchdog digest/seq audits run",
                               MetricStability::kRuntime);
  const auto alert_counter = [&](const char* kind) {
    return metrics->counter(
        LabeledName("watchdog_alerts_total", "kind", kind),
        "Watchdog alerts raised", MetricStability::kRuntime);
  };
  c_alerts_slow_ = alert_counter("slow_shard");
  c_alerts_backlog_ = alert_counter("stall_backlog");
  c_alerts_divergence_ = alert_counter("digest_divergence");
}

void FleetWatchdog::raise(std::vector<WatchdogAlert>* out,
                          WatchdogAlert alert) {
  switch (alert.kind) {
    case WatchdogAlertKind::kSlowShard:
      Inc(c_alerts_slow_);
      break;
    case WatchdogAlertKind::kStallBacklog:
      Inc(c_alerts_backlog_);
      break;
    case WatchdogAlertKind::kDigestDivergence:
      Inc(c_alerts_divergence_);
      break;
  }
  alerts_.push_back(alert);
  out->push_back(std::move(alert));
}

std::vector<WatchdogAlert> FleetWatchdog::check(
    double now_ms, const std::vector<const Histogram*>& shard_publish,
    std::size_t backlog) {
  ++checks_;
  Inc(c_checks_);
  std::vector<WatchdogAlert> out;
  if (slow_flagged_.size() < shard_publish.size())
    slow_flagged_.resize(shard_publish.size(), false);

  // Per-shard p99 + fleet median of the shards that have data at all.
  std::vector<double> p99(shard_publish.size(), 0.0);
  std::vector<std::uint64_t> counts(shard_publish.size(), 0);
  std::vector<double> with_data;
  for (std::size_t k = 0; k < shard_publish.size(); ++k) {
    const Histogram* h = shard_publish[k];
    counts[k] = h->count();
    if (counts[k] == 0) continue;
    p99[k] = HistogramQuantile(h->upper_bounds(), h->bucket_counts(), 0.99);
    with_data.push_back(p99[k]);
  }
  double median = 0.0;
  if (!with_data.empty()) {
    std::sort(with_data.begin(), with_data.end());
    median = with_data[with_data.size() / 2];
  }

  for (std::size_t k = 0; k < shard_publish.size(); ++k) {
    const bool slow =
        counts[k] >= kMinSamples &&
        p99[k] > std::max(kMinP99Ms, options_.skew_ratio * median);
    if (slow && !slow_flagged_[k]) {
      std::ostringstream d;
      d << "shard " << k << " publish p99 " << p99[k]
        << " ms vs fleet median " << median << " ms (skew limit "
        << options_.skew_ratio << "x, floor " << kMinP99Ms << " ms)";
      raise(&out, {WatchdogAlertKind::kSlowShard,
                   static_cast<std::int32_t>(k), now_ms, d.str()});
    }
    slow_flagged_[k] = slow;
  }

  const bool over = backlog >= options_.max_backlog;
  if (over && !backlog_flagged_) {
    std::ostringstream d;
    d << "stall backlog " << backlog << " records >= limit "
      << options_.max_backlog;
    raise(&out, {WatchdogAlertKind::kStallBacklog, -1, now_ms, d.str()});
  }
  backlog_flagged_ = over;
  return out;
}

std::vector<WatchdogAlert> FleetWatchdog::audit(
    double now_ms, const std::vector<ShardAuditSample>& samples) {
  ++audits_;
  Inc(c_audits_);
  std::vector<WatchdogAlert> out;
  for (const ShardAuditSample& s : samples) {
    const std::size_t k = static_cast<std::size_t>(s.shard < 0 ? 0 : s.shard);
    if (baselines_.size() <= k) baselines_.resize(k + 1);
    Baseline& base = baselines_[k];
    bool diverged = false;
    std::ostringstream d;
    if (s.seq != s.expected_seq) {
      diverged = true;
      d << "shard " << s.shard << " at seq " << s.seq
        << " but fleet expects seq " << s.expected_seq;
    } else if (base.valid && s.seq == base.seq && s.digest != base.digest) {
      diverged = true;
      d << "shard " << s.shard << " digest changed at unchanged seq "
        << s.seq;
    }
    if (diverged && !base.flagged)
      raise(&out, {WatchdogAlertKind::kDigestDivergence, s.shard, now_ms,
                   d.str()});
    base.flagged = diverged;
    base.valid = true;
    base.seq = s.seq;
    base.digest = s.digest;
  }
  return out;
}

}  // namespace pubsub
