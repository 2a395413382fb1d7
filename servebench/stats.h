// Order statistics and naming rules shared by the serve-path benchmark's
// runs and its report.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

namespace servebench {

// Nearest-rank percentile of `samples` (q in [0, 1]): the smallest sample
// with at least ceil(q * n) samples at or below it.  Reorders `samples`.
// Returns 0 for an empty set.
double Percentile(std::vector<double>& samples, double q);

// Samples that lie strictly beyond the nearest-rank q-percentile of n
// samples: n - ceil(q * n).
std::size_t SamplesBeyond(std::size_t n, double q);

// A tail percentile is reported only when at least this many samples lie
// beyond it; shallower tails are noise from a handful of events.
inline constexpr std::size_t kMinSamplesBeyond = 10;
inline bool TailReportable(std::size_t n, double q) {
  return SamplesBeyond(n, q) >= kMinSamplesBeyond;
}

// Metric and workload names: a letter or digit first, then letters,
// digits, '_', '.' or '-', at most 64 characters.
bool ValidName(std::string_view name);

}  // namespace servebench
