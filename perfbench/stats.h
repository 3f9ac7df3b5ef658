// Sample summaries for the served-leakage benchmark. A percentile is
// reported only when the sample supports it: at least ten samples must lie
// beyond the percentile's rank, otherwise the summary says "unsupported"
// instead of printing a number that one outlier would set.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly above a percentile's rank for the
/// percentile to be reported.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// A failed or refused request enters a latency sample as infinitely slow.
inline constexpr double kFailedLatency =
    std::numeric_limits<double>::infinity();

struct Percentile {
  bool supported = false;
  double value = 0.0;        ///< nearest-rank value; meaningful when supported
  std::size_t samples = 0;   ///< size of the sample it was taken from
};

/// Nearest-rank percentile `q` (in (0, 1)) of an ascending-sorted sample:
/// the value at 1-based rank ceil(q·n). Supported only when at least
/// kMinSamplesBeyond samples lie above that rank, i.e. n − ceil(q·n) ≥ 10.
inline Percentile PercentileOf(const std::vector<double>& sorted, double q) {
  Percentile p;
  p.samples = sorted.size();
  if (sorted.empty()) return p;
  const double n = static_cast<double>(sorted.size());
  // The epsilon keeps q·n from rounding up past an exact integer rank
  // (0.99 · 1000 is 990.0000000000001 in binary floating point).
  auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  p.value = sorted[rank - 1];
  p.supported = sorted.size() - rank >= kMinSamplesBeyond;
  return p;
}

/// Median of an unsorted sample (sorts a copy); 0 when empty. For repeated
/// timings of one operation, where every sample is a valid reading.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace perfbench
