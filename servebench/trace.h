// Spans recorded by the benchmark around its calls into the serving stack.
//
// Spans live in memory and are written out when the run ends. A span's
// parent is the call one layer up. A child recorded while its parent runs
// (the coordinator's per-shard calls) covers its own interval; a child that
// replays the parent's request one layer down after the parent returned
// (`replay`) covers its duration from the parent's start. A span's self
// time is its duration minus the union of what its children cover.
#ifndef SERVEBENCH_TRACE_H_
#define SERVEBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace servebench {

/// Seconds on the steady clock.
double Now();

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int64_t parent = -1;  // index into the span list, -1 for a root
  uint64_t request = 0;
  bool replay = false;
  double duration() const { return end - start; }
};

/// Thread-safe in-memory span list.
class SpanRecorder {
 public:
  /// Opens a span starting now and returns its index.
  int64_t Begin(const std::string& name, uint64_t request, int64_t parent,
                bool replay = false);
  /// Closes span \p id now.
  void End(int64_t id);
  std::vector<Span> spans() const;
  /// Writes one JSON object per line. Returns false on an I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time of every span, by index.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// Mean duration and mean self time per span name, in seconds.
struct LayerTime {
  size_t count = 0;
  double mean_s = 0.0;
  double self_mean_s = 0.0;
};
std::map<std::string, LayerTime> SummarizeByName(const std::vector<Span>& spans);

}  // namespace servebench

#endif  // SERVEBENCH_TRACE_H_
