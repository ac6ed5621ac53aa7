// The benchmark's runs: the timed run (end-to-end metrics, tracing off) and
// the traced run (per-layer metrics) of each workload.
#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"

namespace servebench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOutput {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Open-loop rates and limits of one workload.
struct RpcPlan {
  size_t cache_bytes = 0;
  double low_qps = 0.0;
  double high_qps = 0.0;
  /// Outstanding requests of the closed loop.
  size_t window = 0;
  /// Fixed ladder for max_qps, ascending. The search starts at the first
  /// rung at or above ladder_start (near the knee, so that it climbs few
  /// rungs) and climbs, or descends if that rung misses.
  std::vector<double> ladder;
  double ladder_start = 0.0;
  double p99_limit_ms = 0.0;
  /// Requests the rpc_cold warm-up sends on every fresh stack (rpc_hot's
  /// warm-up sends each returning user once).
  size_t warmup = 0;
};
RpcPlan PlanFor(Workload w);

/// End-to-end metrics with tracing off; prints a human-readable report.
RunOutput RunTimed(Workload w, const Fixture& fx, uint64_t seed,
                   double seconds);

/// Per-layer metrics: micro-measurements of each layer's public calls, a
/// loaded phase for the counters, and the replay of a prefix of the request
/// stream at every depth with spans, written to \p span_path.
RunOutput RunTraced(Workload w, const Fixture& fx, uint64_t seed,
                    double seconds, const std::string& span_path);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H_
