#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "data/synthetic.h"
#include "serve/checkpoint.h"
#include "serve/protocol.h"
#include "util/logging.h"
#include "util/rng.h"

namespace servebench {

using seqfm::Rng;
using seqfm::Status;
namespace serve = seqfm::serve;

namespace {

// Fixed seeds of the model fixture; only request streams follow --seed.
constexpr uint64_t kModelSeed = 7;

// Distinct streams per (workload, seed, phase, purpose).
uint64_t StreamSeed(uint64_t seed, uint64_t a, uint64_t b, uint64_t c) {
  uint64_t h = 1469598103934665603ull;
  for (uint64_t v : {seed, a, b, c}) {
    h ^= v;
    h *= 1099511628211ull;
    h ^= h >> 29;
  }
  return h;
}

core::SeqFmConfig ModelConfig() {
  core::SeqFmConfig cfg;
  cfg.embedding_dim = kDim;
  cfg.max_seq_len = kSeqLen;
  cfg.ffn_layers = 1;
  cfg.keep_prob = 0.9f;
  cfg.seed = kModelSeed;
  return cfg;
}

}  // namespace

data::SequenceExample Request::example() const {
  data::SequenceExample ex;
  ex.user = user;
  ex.history = history;
  return ex;
}

std::unique_ptr<core::SeqFm> NewModel(const data::FeatureSpace& space) {
  core::SeqFmConfig cfg = ModelConfig();
  cfg.seed = kModelSeed + 1;  // differs, so only a real load serves right
  return std::make_unique<core::SeqFm>(space, cfg);
}

Fixture MakeFixture(const std::string& checkpoint_path) {
  Fixture fx;
  data::SyntheticConfig config =
      data::SyntheticDatasetGenerator::Preset("gowalla", kScale).ValueOrDie();
  data::InteractionLog raw =
      data::SyntheticDatasetGenerator(config).Generate().ValueOrDie();
  // The paper's >= 10 interactions filter (Sec. V-A), as the benches apply.
  data::InteractionLog log =
      raw.Filter(/*min_user_events=*/10, /*min_object_users=*/2).ValueOrDie();
  data::TemporalDataset dataset =
      data::TemporalDataset::FromLog(log).ValueOrDie();
  fx.space = data::FeatureSpace(log.num_users(), log.num_objects());
  fx.builder = std::make_unique<data::BatchBuilder>(fx.space, kSeqLen);
  fx.contexts = dataset.test();
  SEQFM_CHECK_GE(fx.contexts.size(), kHotUsers);
  fx.contexts.insert(fx.contexts.end(), dataset.train().begin(),
                     dataset.train().end());

  core::SeqFm model(fx.space, ModelConfig());
  fx.checkpoint_path = checkpoint_path;
  const Status saved = serve::Checkpoint::Save(model, checkpoint_path);
  SEQFM_CHECK(saved.ok()) << saved.ToString();
  return fx;
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w :
       {Workload::kFleetCatalog, Workload::kRpcHot, Workload::kRpcCold}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kFleetCatalog: return "fleet_catalog";
    case Workload::kRpcHot: return "rpc_hot";
    case Workload::kRpcCold: return "rpc_cold";
  }
  return "?";
}

// One block of 100 requests; every phase repeats the block, so each phase
// sees every size, and each exactly as often, whatever the seed. Each
// percentile sits inside one population of requests rather than on the
// edge between two, where a small change in the machine's speed would move
// it from one population's latency to the other's: the 3% of 300-candidate
// slates hold every p99, and the 75% of one- and two-candidate slates (both
// run the count-2 body) hold the p50 of the low rate, also after the ~20%
// of requests queued behind a large slate there have left that population.
// The warm-up sends every size but 24 and 40, so those compile their body
// on the measured path, as after a restart. They are small on purpose: a
// compile stalls the whole wave, and at hundreds of candidates the stall
// would decide every p99 on its own.
const std::vector<size_t>& HotSlateSizes() {
  static const std::vector<size_t> kSizes = [] {
    const std::pair<size_t, size_t> hist[] = {
        {1, 55}, {2, 20}, {4, 5},  {8, 4},   {16, 3},  {24, 2},
        {32, 2}, {40, 2}, {64, 1}, {128, 3}, {300, 3}};
    std::vector<size_t> sizes;
    for (const auto& [size, n] : hist) sizes.insert(sizes.end(), n, size);
    return sizes;
  }();
  return kSizes;
}

const std::vector<size_t>& HotWarmupSizes() {
  static const std::vector<size_t> kSizes = {1, 2, 4, 8, 16, 32, 64, 128, 300};
  return kSizes;
}

std::vector<Request> MakeRequests(Workload w, const Fixture& fx, uint64_t seed,
                                  uint64_t phase, size_t count) {
  Rng rng(StreamSeed(seed, static_cast<uint64_t>(w), phase, 1));
  const size_t n_obj = fx.num_objects();
  std::vector<Request> out(count);
  switch (w) {
    case Workload::kFleetCatalog: {
      // Distinct (user, history) per request: a dataset context with its
      // history cut at a random point, so no two requests share a context.
      for (Request& r : out) {
        const auto& ex = fx.contexts[rng.UniformInt(fx.contexts.size())];
        r.user = ex.user;
        const size_t keep = ex.history.empty()
                                ? 0
                                : 1 + rng.UniformInt(ex.history.size());
        r.history.assign(ex.history.end() - static_cast<ptrdiff_t>(keep),
                         ex.history.end());
      }
      break;
    }
    case Workload::kRpcHot: {
      // Returning users with Zipf(1) popularity over kHotUsers users; the
      // user's context is fixed (their test example), so the context cache
      // holds every one of them after the warm-up.
      std::vector<double> cdf(kHotUsers);
      double total = 0.0;
      for (size_t i = 0; i < kHotUsers; ++i) {
        total += 1.0 / static_cast<double>(i + 1);
        cdf[i] = total;
      }
      std::vector<size_t> sizes;
      const auto& block = HotSlateSizes();
      while (sizes.size() < count) {
        sizes.insert(sizes.end(), block.begin(), block.end());
      }
      sizes.resize(count);
      for (size_t i = count; i > 1; --i) {
        std::swap(sizes[i - 1], sizes[rng.UniformInt(i)]);
      }
      for (size_t i = 0; i < count; ++i) {
        const double u = rng.Uniform() * total;
        const size_t rank = static_cast<size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        const auto& ex = fx.contexts[std::min(rank, kHotUsers - 1)];
        out[i].user = ex.user;
        out[i].history = ex.history;
        // A slate of distinct candidates drawn from the catalog.
        const size_t start = rng.UniformInt(n_obj);
        const size_t stride = 1 + 2 * rng.UniformInt(n_obj / 2);
        out[i].slate.resize(sizes[i]);
        for (size_t j = 0; j < sizes[i]; ++j) {
          out[i].slate[j] = static_cast<int32_t>((start + j * stride) % n_obj);
        }
      }
      break;
    }
    case Workload::kRpcCold: {
      // A fresh history per request (a random window of a random dataset
      // context) and one candidate, as in CTR and rating prediction.
      for (Request& r : out) {
        const auto& ex = fx.contexts[rng.UniformInt(fx.contexts.size())];
        r.user = ex.user;
        const size_t len = ex.history.size();
        const size_t keep = len == 0 ? 0 : 1 + rng.UniformInt(len);
        const size_t from = rng.UniformInt(len - keep + 1);
        r.history.assign(ex.history.begin() + static_cast<ptrdiff_t>(from),
                         ex.history.begin() +
                             static_cast<ptrdiff_t>(from + keep));
        r.slate = {static_cast<int32_t>(rng.UniformInt(n_obj))};
      }
      break;
    }
  }
  return out;
}

std::vector<double> PoissonSchedule(double qps, size_t count, uint64_t seed,
                                    uint64_t phase) {
  Rng rng(StreamSeed(seed, 99, phase, 2));
  std::vector<double> at(count);
  double t = 0.0;
  for (double& a : at) {
    t += -std::log(1.0 - rng.Uniform()) / qps;
    a = t;
  }
  return at;
}

std::string StreamBytes(const std::vector<Request>& requests,
                        const std::vector<double>& schedule) {
  std::string wire;
  for (size_t i = 0; i < requests.size(); ++i) {
    serve::RpcRequest req;
    req.id = i;
    req.user = requests[i].user;
    req.k = kTopK;
    req.history = requests[i].history;
    req.slate = requests[i].slate;
    serve::AppendRequestFrame(req, &wire);
  }
  const size_t at = wire.size();
  wire.resize(at + schedule.size() * sizeof(double));
  if (!schedule.empty()) {
    std::memcpy(&wire[at], schedule.data(), schedule.size() * sizeof(double));
  }
  return wire;
}

}  // namespace servebench
