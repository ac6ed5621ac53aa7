// servebench: one run of one workload of the serving benchmark.
//
//   servebench --workload rpc_hot --seed 1 --seconds 20 --trace 0
//              --workdir DIR [--spans FILE]
//
// Prints a human-readable report, a machine fingerprint line, and as the
// last line one JSON object {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when any checked response differs from the oracle.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "inputs.h"
#include "tensor/kernels.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: servebench --workload fleet_catalog|rpc_hot|rpc_cold "
               "--seed N --seconds S --trace 0|1 --workdir DIR "
               "[--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, workdir, spans;
  long long seed = -1;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") workload_name = value;
    else if (flag == "--seed") seed = std::atoll(value);
    else if (flag == "--seconds") seconds = std::atof(value);
    else if (flag == "--trace") trace = std::atoi(value);
    else if (flag == "--workdir") workdir = value;
    else if (flag == "--spans") spans = value;
    else return Usage();
  }
  servebench::Workload w;
  if (argc % 2 != 1 || !servebench::ParseWorkload(workload_name, &w) ||
      seed < 0 || seconds <= 0.0 || (trace != 0 && trace != 1) ||
      workdir.empty()) {
    return Usage();
  }
  if (w == servebench::Workload::kFleetCatalog && trace == 1) {
    // Its layers are traced in every other workload's traced run, which
    // times Coordinator::TopKAll and its shards on that workload's contexts.
    std::fprintf(stderr, "servebench: fleet_catalog has no traced run\n");
    return 2;
  }

  // The load generator and the RPC event loop run in this process too:
  // leave them two cores, so that the schedule the generator keeps does not
  // depend on how busy the server keeps the pool.
  const unsigned cores = std::thread::hardware_concurrency();
  seqfm::util::SetGlobalThreads(cores > 3 ? cores - 2 : 1);

  const std::string ckpt =
      workdir + "/model-" + std::to_string(::getpid()) + ".ckpt";
  const servebench::Fixture fx = servebench::MakeFixture(ckpt);
  std::printf("fingerprint: {\"cpu\": \"%s\", \"nproc\": %u, "
              "\"pool_threads\": %zu, \"simd\": \"%s\", \"compiler\": \"%s\", "
              "\"flags\": \"%s\", \"seed\": %lld, \"workload\": \"%s\", "
              "\"objects\": %zu, \"dim\": %zu, \"seq_len\": %zu}\n",
              JsonEscape(CpuModel()).c_str(),
              std::thread::hardware_concurrency(),
              seqfm::util::GlobalThreads(),
              seqfm::tensor::kernels::Active().name, SERVEBENCH_COMPILER,
              SERVEBENCH_FLAGS, seed, workload_name.c_str(), fx.num_objects(),
              servebench::kDim, servebench::kSeqLen);
  std::fflush(stdout);

  const servebench::RunOutput out =
      trace == 0 ? servebench::RunTimed(w, fx, static_cast<uint64_t>(seed),
                                        seconds)
                 : servebench::RunTraced(w, fx, static_cast<uint64_t>(seed),
                                         seconds, spans);
  std::remove(ckpt.c_str());

  std::printf("%-28s %16s  %s\n", "metric", "value", "unit");
  for (const auto& m : out.metrics) {
    std::printf("%-28s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", out.metrics[i].value);
    json += (i ? ", \"" : "\"") + out.metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + out.metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return out.correct ? 0 : 1;
}
