// Sample statistics with the benchmark's percentile rule.
#ifndef SERVEBENCH_STATS_H_
#define SERVEBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace servebench {

/// A percentile is reported only when at least this many samples lie
/// beyond it; p99 therefore needs 1000 samples.
constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile (rank ceil(q * n), 1-based) of \p samples, for
/// q in (0, 1). Returns false, leaving *out untouched, when fewer than
/// kMinSamplesBeyond samples lie beyond that rank.
bool Percentile(std::vector<double> samples, double q, double* out);

/// Median (mean of the two middle values for even n); 0 for no samples.
double Median(std::vector<double> samples);

}  // namespace servebench

#endif  // SERVEBENCH_STATS_H_
