#include "stack.h"

#include "serve/backend.h"
#include "serve/checkpoint.h"
#include "tensor/tensor.h"
#include "util/logging.h"

namespace servebench {

Stack::Stack(const Fixture& fx, size_t cache_bytes, uint32_t shard_index,
             uint32_t num_shards) {
  model_ = NewModel(fx.space);
  serve::PredictorOptions popts;
  popts.context_cache_bytes = cache_bytes;
  predictor_ = serve::Predictor::FromCheckpoint(model_.get(), fx.builder.get(),
                                                fx.checkpoint_path, popts)
                   .ValueOrDie();
  SEQFM_CHECK(predictor_->compiled_active())
      << "servebench: the model did not compile";
  batch_ = std::make_unique<serve::BatchServer>(predictor_.get());
  serve::RpcServerOptions ropts;
  if (num_shards > 1) {
    ropts.catalog_size = fx.num_objects();
    ropts.shard_index = shard_index;
    ropts.num_shards = num_shards;
    ropts.model_version = serve::ParameterVersion(*model_);
  }
  rpc_ = std::make_unique<serve::RpcServer>(batch_.get(), ropts);
  const seqfm::Status started = rpc_->Start();
  SEQFM_CHECK(started.ok()) << started.ToString();
}

Stack::~Stack() { rpc_->Shutdown(); }

class Fleet::TimedBackend : public serve::ScoringBackend {
 public:
  TimedBackend(std::unique_ptr<serve::RemoteReplicaBackend> inner,
               const ShardTrace* trace, uint32_t shard)
      : inner_(std::move(inner)), trace_(trace), shard_(shard) {}

  seqfm::Status ScoreTopK(
      const std::vector<serve::ScoreJob>& jobs,
      std::vector<std::vector<serve::RankEntry>>* results) override {
    const ShardTrace t = *trace_;
    const int64_t span =
        t.recorder == nullptr
            ? -1
            : t.recorder->Begin("coord.shard" + std::to_string(shard_),
                                t.request, t.parent);
    seqfm::Status st = inner_->ScoreTopK(jobs, results);
    if (span >= 0) t.recorder->End(span);
    return st;
  }
  serve::BackendRecoveryStats RecoveryStats() const override {
    return inner_->RecoveryStats();
  }

 private:
  std::unique_ptr<serve::RemoteReplicaBackend> inner_;
  const ShardTrace* trace_;
  uint32_t shard_;
};

Fleet::Fleet(const Fixture& fx, size_t cache_bytes) {
  constexpr uint32_t kShards = 2;
  for (uint32_t s = 0; s < kShards; ++s) {
    replicas_.push_back(std::make_unique<Stack>(fx, cache_bytes, s, kShards));
    auto remote = std::make_unique<serve::RemoteReplicaBackend>(
        serve::RemoteReplicaBackendOptions{});
    const seqfm::Status connected =
        remote->Connect("127.0.0.1", replicas_.back()->port());
    SEQFM_CHECK(connected.ok()) << connected.ToString();
    infos_.push_back(remote->info());
    const seqfm::Status added = coordinator_.AddBackend(
        std::make_unique<TimedBackend>(std::move(remote), &trace_, s),
        infos_.back());
    SEQFM_CHECK(added.ok()) << added.ToString();
  }
  const seqfm::Status ready = coordinator_.Ready();
  SEQFM_CHECK(ready.ok()) << ready.ToString();
}

void Fleet::TraceShards(SpanRecorder* recorder, int64_t parent,
                        uint64_t request) {
  trace_ = ShardTrace{recorder, parent, request};
}

namespace {

void AddStackCounters(const Stack& s, Counters* c) {
  auto& m = *c;
  const seqfm::ir::EngineStats e = s.predictor().engine()->stats();
  m["ir.compiled_counts"] += static_cast<double>(e.compiled_counts);
  m["ir.body_instrs"] += static_cast<double>(e.body_instrs);
  m["ir.prologue_instrs"] += static_cast<double>(e.prologue_instrs);
  m["ir.frame_bytes"] += static_cast<double>(
      (e.prologue_frame_floats + e.body_frame_floats) * sizeof(float));
  if (const serve::ContextCache* cache = s.predictor().context_cache()) {
    const serve::ContextCacheStats cs = cache->stats();
    m["cache.hits"] += static_cast<double>(cs.hits);
    m["cache.misses"] += static_cast<double>(cs.misses);
    m["cache.evictions"] += static_cast<double>(cs.evictions);
    m["cache.bytes"] += static_cast<double>(cs.bytes);
  }
  const serve::BatchServerStats b = s.batch().stats();
  m["server.admitted"] += static_cast<double>(b.requests_admitted);
  m["server.served"] += static_cast<double>(b.requests_served);
  m["server.shed"] += static_cast<double>(b.requests_rejected);
  m["server.waves"] += static_cast<double>(b.waves);
  const serve::RpcServerStats r = s.rpc().stats();
  m["rpc.frames_received"] += static_cast<double>(r.frames_received);
  m["rpc.requests_ok"] += static_cast<double>(r.requests_ok);
  m["rpc.requests_shed"] += static_cast<double>(r.requests_shed);
  m["rpc.requests_bad"] += static_cast<double>(r.requests_bad);
  m["rpc.protocol_errors"] += static_cast<double>(r.protocol_errors);
  m["rpc.backpressure_pauses"] += static_cast<double>(r.backpressure_pauses);
}

}  // namespace

Counters ReadCounters(const Stack* stack, Fleet* fleet) {
  Counters m;
  if (stack != nullptr) AddStackCounters(*stack, &m);
  if (fleet != nullptr) {
    for (size_t i = 0; i < fleet->num_replicas(); ++i) {
      AddStackCounters(fleet->replica(i), &m);
    }
    const serve::CoordinatorStats c = fleet->coordinator().stats();
    m["coord.shard_attempts"] = static_cast<double>(c.shard_attempts);
    m["coord.retries"] = static_cast<double>(c.retries);
    m["coord.retries_denied"] = static_cast<double>(c.retries_denied);
    m["coord.circuit_opens"] = static_cast<double>(c.circuit_opens);
    m["coord.reconnects"] = static_cast<double>(c.reconnects);
  }
  // Process-wide: the scratch arenas and the tensor allocator.
  const seqfm::core::ScratchStats sc = seqfm::core::GlobalScratchStats();
  m["scratch.heap_refills"] = static_cast<double>(sc.heap_refills);
  m["tensor.heap_allocs"] =
      static_cast<double>(seqfm::tensor::internal::HeapAllocCount());
  return m;
}

Counters Delta(const Counters& a, const Counters& b) {
  Counters d;
  for (const auto& [k, v] : b) {
    const auto it = a.find(k);
    d[k] = v - (it == a.end() ? 0.0 : it->second);
  }
  return d;
}

}  // namespace servebench
