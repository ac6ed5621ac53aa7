// Self-tests of the benchmark's own machinery:
//   - the same seed yields a byte-identical request stream and schedule;
//   - the percentile rule refuses a percentile with < 10 samples beyond it;
//   - self-time arithmetic on a hand-built span tree.
// Usage: servebench_selftest --workdir DIR. Exits 1 on the first failure.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "inputs.h"
#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void StreamDeterminism(const servebench::Fixture& fx) {
  using servebench::Workload;
  for (Workload w :
       {Workload::kFleetCatalog, Workload::kRpcHot, Workload::kRpcCold}) {
    auto bytes = [&](uint64_t seed) {
      return servebench::StreamBytes(
          servebench::MakeRequests(w, fx, seed, 2, 400),
          servebench::PoissonSchedule(250.0, 400, seed, 2));
    };
    const std::string name = servebench::WorkloadName(w);
    Expect(bytes(7) == bytes(7), name + ": same seed, same bytes");
    Expect(bytes(7) != bytes(8), name + ": another seed, other bytes");
  }
  // Every phase of rpc_hot carries the whole slate-size histogram.
  const auto hot = servebench::MakeRequests(Workload::kRpcHot, fx, 3, 5, 100);
  std::vector<size_t> sizes;
  for (const auto& r : hot) sizes.push_back(r.slate.size());
  std::vector<size_t> block = servebench::HotSlateSizes();
  std::sort(sizes.begin(), sizes.end());
  std::sort(block.begin(), block.end());
  Expect(sizes == block, "rpc_hot: 100 requests carry the size histogram");
}

void PercentileRule() {
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  double p = -1.0;
  Expect(!servebench::Percentile(v, 0.99, &p) && p == -1.0,
         "p99 of 999 samples is refused (9 beyond)");
  v.push_back(1000);
  Expect(servebench::Percentile(v, 0.99, &p) && p == 990.0,
         "p99 of 1000 samples is the 990th (10 beyond)");
  std::vector<double> small(19, 1.0);
  Expect(!servebench::Percentile(small, 0.5, &p), "p50 of 19 refused");
  small.push_back(2.0);
  Expect(servebench::Percentile(small, 0.5, &p) && p == 1.0,
         "p50 of 20 accepted");
}

void SelfTimeArithmetic() {
  using servebench::Span;
  // root [0, 10] with two overlapping nested children [1, 4] and [3, 6];
  // child [1, 4] has a replayed child of duration 2 (timed after it).
  std::vector<Span> spans(4);
  spans[0] = {"root", 0.0, 10.0, -1, 1, false};
  spans[1] = {"a", 1.0, 4.0, 0, 1, false};
  spans[2] = {"b", 3.0, 6.0, 0, 1, false};
  spans[3] = {"a.down", 20.0, 22.0, 1, 1, true};
  const std::vector<double> self = servebench::SelfTimes(spans);
  Expect(Near(self[0], 10.0 - 5.0), "root self = 10 - |[1,4] u [3,6]|");
  Expect(Near(self[1], 3.0 - 2.0), "replayed child is subtracted by length");
  Expect(Near(self[2], 3.0) && Near(self[3], 2.0), "leaves keep their time");
  // A child outside its parent's interval covers only the overlap.
  spans[2] = {"b", 8.0, 12.0, 0, 1, false};
  Expect(Near(servebench::SelfTimes(spans)[0], 10.0 - 3.0 - 2.0),
         "child spans are clipped to the parent");
  const auto by_name = servebench::SummarizeByName(spans);
  Expect(by_name.at("a").count == 1 && Near(by_name.at("a").self_mean_s, 1.0),
         "summary by name");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3 || std::string(argv[1]) != "--workdir") {
    std::fprintf(stderr, "usage: servebench_selftest --workdir DIR\n");
    return 2;
  }
  const std::string ckpt = std::string(argv[2]) + "/selftest.ckpt";
  const servebench::Fixture fx = servebench::MakeFixture(ckpt);
  std::remove(ckpt.c_str());
  StreamDeterminism(fx);
  PercentileRule();
  SelfTimeArithmetic();
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "passed", failures);
  return failures ? 1 : 0;
}
