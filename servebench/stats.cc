#include "stats.h"

#include <algorithm>
#include <cmath>

namespace servebench {

bool Percentile(std::vector<double> samples, double q, double* out) {
  const size_t n = samples.size();
  if (n == 0 || q <= 0.0 || q >= 1.0) return false;
  const size_t rank = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9)));
  if (n - rank < kMinSamplesBeyond) return false;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  *out = samples[rank - 1];
  return true;
}

double Median(std::vector<double> samples) {
  const size_t n = samples.size();
  if (n == 0) return 0.0;
  std::sort(samples.begin(), samples.end());
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

}  // namespace servebench
