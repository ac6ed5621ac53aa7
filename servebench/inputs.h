// Benchmark inputs: the model fixture (dataset, SeqFM checkpoint on disk)
// and the seeded request streams and arrival schedules of each workload.
//
// The model and catalog are fixed; only the request streams depend on the
// seed given on the command line. The serving stack never sees the seed,
// only the requests generated from it.
#ifndef SERVEBENCH_INPUTS_H_
#define SERVEBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/seqfm.h"
#include "data/dataset.h"
#include "data/feature_space.h"

namespace servebench {

namespace core = seqfm::core;
namespace data = seqfm::data;

/// SeqFM at the paper's serving shape.
constexpr size_t kDim = 64;
constexpr size_t kSeqLen = 50;
/// gowalla preset scale; gives 980 objects after the paper's filtering.
constexpr double kScale = 6.0;
/// Top-K every request asks for.
constexpr uint32_t kTopK = 10;

/// Everything the serving stack is built from. Generated once per process.
struct Fixture {
  data::FeatureSpace space;
  std::unique_ptr<data::BatchBuilder> builder;
  /// Every (user, history) context the dataset holds: the per-user test
  /// examples first (one per user; rpc_hot's returning users are the first
  /// kHotUsers of them), then the training examples.
  std::vector<data::SequenceExample> contexts;
  std::string checkpoint_path;
  size_t num_objects() const { return space.num_objects(); }
};

/// Generates the dataset, builds a seeded SeqFM and saves it with
/// Checkpoint::Save to \p checkpoint_path.
Fixture MakeFixture(const std::string& checkpoint_path);

/// An untrained SeqFM of the benchmark's architecture, for FromCheckpoint
/// (its parameters are overwritten by the load).
std::unique_ptr<core::SeqFm> NewModel(const data::FeatureSpace& space);

/// One generated request. `slate` empty means "rank the whole catalog".
struct Request {
  int32_t user = 0;
  std::vector<int32_t> history;
  std::vector<int32_t> slate;
  data::SequenceExample example() const;
};

/// The three workloads (see BENCHMARK.json and run.py for why each).
enum class Workload { kFleetCatalog, kRpcHot, kRpcCold };
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

/// \p count requests of workload \p w for phase \p phase of a run with
/// \p seed. The same (w, seed, phase, count) always yields the same stream.
std::vector<Request> MakeRequests(Workload w, const Fixture& fx, uint64_t seed,
                                  uint64_t phase, size_t count);

/// Poisson arrival offsets in seconds from the phase start, at \p qps.
std::vector<double> PoissonSchedule(double qps, size_t count, uint64_t seed,
                                    uint64_t phase);

/// Wire bytes of a request stream plus its schedule, for the determinism
/// self-test: the RPC encoding of every request followed by the schedule's
/// raw doubles.
std::string StreamBytes(const std::vector<Request>& requests,
                        const std::vector<double>& schedule);

/// Slate sizes of rpc_hot: a fixed long-tailed histogram, one block of 100
/// requests. The warm-up sends HotWarmupSizes only, so the other sizes
/// compile their body on the measured path, as after a restart.
const std::vector<size_t>& HotSlateSizes();
const std::vector<size_t>& HotWarmupSizes();
/// Distinct returning users of rpc_hot.
constexpr size_t kHotUsers = 300;

}  // namespace servebench

#endif  // SERVEBENCH_INPUTS_H_
