#include "stats.h"

#include <algorithm>
#include <cctype>
#include <cmath>

namespace servebench {
namespace {

// 1-based nearest rank, clamped to [1, n].
std::size_t NearestRank(std::size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n));
  if (r < 1.0) return 1;
  return std::min(n, static_cast<std::size_t>(r));
}

}  // namespace

double Percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t k = NearestRank(samples.size(), q) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

std::size_t SamplesBeyond(std::size_t n, double q) {
  if (n == 0) return 0;
  return n - NearestRank(n, q);
}

bool ValidName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name.front()))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

}  // namespace servebench
