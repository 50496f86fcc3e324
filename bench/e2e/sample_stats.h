#ifndef CEGRAPH_BENCH_E2E_SAMPLE_STATS_H_
#define CEGRAPH_BENCH_E2E_SAMPLE_STATS_H_

// Order statistics over measured samples.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

namespace cegraph::e2e {

/// The p-quantile (p in [0, 1]), interpolating between order statistics;
/// 0 for no samples.
inline double Quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double position = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(position));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = position - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

/// exp(mean(log v)) over positive values; 0 for no samples.
inline double GeometricMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double logs = 0;
  for (const double v : values) logs += std::log(v);
  return std::exp(logs / static_cast<double>(values.size()));
}

}  // namespace cegraph::e2e

#endif  // CEGRAPH_BENCH_E2E_SAMPLE_STATS_H_
