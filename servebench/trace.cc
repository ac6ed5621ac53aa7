#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace servebench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t SpanRecorder::Begin(const std::string& name, uint64_t request,
                            int64_t parent, bool replay) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent = parent;
  span.replay = replay;
  std::lock_guard<std::mutex> lock(mu_);
  span.start = Now();
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanRecorder::End(int64_t id) {
  const double t = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = t;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                 "\"end\": %.9f, \"parent\": %lld, \"request\": %llu, "
                 "\"replay\": %s}\n",
                 i, s.name.c_str(), s.start, s.end,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 s.replay ? "true" : "false");
  }
  return std::fclose(f) == 0;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> covered(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<size_t>(s.parent) >= spans.size()) continue;
    const Span& p = spans[static_cast<size_t>(s.parent)];
    double a = s.replay ? p.start : s.start;
    double b = s.replay ? p.start + s.duration() : s.end;
    a = std::max(a, p.start);
    b = std::min(b, p.end);
    if (b > a) covered[static_cast<size_t>(s.parent)].push_back({a, b});
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    double total = 0.0;
    double lo = 0.0;
    double hi = -1.0;
    for (const auto& [a, b] : iv) {
      if (a > hi) {
        if (hi > lo) total += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) total += hi - lo;
    self[i] = spans[i].duration() - total;
  }
  return self;
}

std::map<std::string, LayerTime> SummarizeByName(
    const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimes(spans);
  std::map<std::string, LayerTime> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    LayerTime& t = out[spans[i].name];
    ++t.count;
    t.mean_s += spans[i].duration();
    t.self_mean_s += self[i];
  }
  for (auto& [name, t] : out) {
    t.mean_s /= static_cast<double>(t.count);
    t.self_mean_s /= static_cast<double>(t.count);
  }
  return out;
}

}  // namespace servebench
