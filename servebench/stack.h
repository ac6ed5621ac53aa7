// The serving stack under test, stood up in this process through its public
// entry points only, and the one place that reads the stack's stats structs.
#ifndef SERVEBENCH_STACK_H_
#define SERVEBENCH_STACK_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "inputs.h"
#include "serve/coordinator.h"
#include "serve/predictor.h"
#include "serve/rpc_server.h"
#include "serve/server.h"
#include "trace.h"

namespace servebench {

namespace serve = seqfm::serve;

/// Predictor::FromCheckpoint -> BatchServer -> RpcServer on a loopback
/// ephemeral port, all with production defaults except the context cache
/// budget. In replica mode (num_shards > 1) the RpcServer owns one slice of
/// the identity catalog.
class Stack {
 public:
  Stack(const Fixture& fx, size_t cache_bytes, uint32_t shard_index = 0,
        uint32_t num_shards = 1);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  uint16_t port() const { return rpc_->port(); }
  const serve::Predictor& predictor() const { return *predictor_; }
  serve::BatchServer& batch() { return *batch_; }
  const serve::BatchServer& batch() const { return *batch_; }
  const serve::RpcServer& rpc() const { return *rpc_; }

 private:
  std::unique_ptr<core::SeqFm> model_;
  std::unique_ptr<serve::Predictor> predictor_;
  std::unique_ptr<serve::BatchServer> batch_;
  std::unique_ptr<serve::RpcServer> rpc_;
};

/// Two replica-mode Stacks, each owning half the catalog, behind a
/// Coordinator. Each replica is reached through a RemoteReplicaBackend
/// wrapped in a timing backend (added with AddBackend), so a traced
/// TopKAll gets one child span per shard. Construction ends at Ready().
class Fleet {
 public:
  Fleet(const Fixture& fx, size_t cache_bytes);
  serve::Coordinator& coordinator() { return coordinator_; }
  const Stack& replica(size_t i) const { return *replicas_[i]; }
  /// The identity replica \p i announced in its handshake.
  const serve::ReplicaInfo& info(size_t i) const { return infos_[i]; }
  size_t num_replicas() const { return replicas_.size(); }
  /// Shard calls record spans under \p parent into \p recorder while set;
  /// null stops recording. Not for use while a TopKAll is in flight.
  void TraceShards(SpanRecorder* recorder, int64_t parent, uint64_t request);

 private:
  struct ShardTrace {
    SpanRecorder* recorder = nullptr;
    int64_t parent = -1;
    uint64_t request = 0;
  };
  class TimedBackend;
  ShardTrace trace_;
  std::vector<std::unique_ptr<Stack>> replicas_;
  std::vector<serve::ReplicaInfo> infos_;
  serve::Coordinator coordinator_;
};

/// Counter snapshot, keyed "<layer>.<counter>".
using Counters = std::map<std::string, double>;

/// Reads every stats struct the stack exposes — EngineStats,
/// ContextCacheStats, ScratchStats, BatchServerStats, RpcServerStats,
/// CoordinatorStats (with the backends' recovery stats folded in) — plus the
/// tensor heap allocation count. Either pointer may be null.
Counters ReadCounters(const Stack* stack, Fleet* fleet);

/// b - a for every key of b (a missing key counts as 0).
Counters Delta(const Counters& a, const Counters& b);

}  // namespace servebench

#endif  // SERVEBENCH_STACK_H_
