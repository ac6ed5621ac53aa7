#ifndef SEQFM_SERVE_PREDICTOR_H_
#define SEQFM_SERVE_PREDICTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/model_interface.h"
#include "core/scratch_arena.h"
#include "core/seqfm.h"
#include "data/dataset.h"
#include "ir/exec.h"
#include "serve/context_cache.h"
#include "util/result.h"

namespace seqfm {
namespace serve {

struct PredictorOptions {
  /// Candidates scored per tape-free forward. Also the chunk the candidate
  /// loop hands to the shared util::ThreadPool.
  size_t micro_batch = 256;
  /// Use the factored SeqFM catalog program when the model supports it (all
  /// three views enabled, default masking). The program computes the
  /// candidate-invariant work — the whole dynamic view and the dynamic-side
  /// projections of the cross view — once per request and only re-scores the
  /// candidate-dependent rows, the same way an LLM server reuses its KV
  /// cache across decode steps. Scores are bit-for-bit identical to the
  /// batched Model::Score path; set to false to force the generic path.
  bool enable_seqfm_fast_path = true;
  /// Compile the model into a static op program at construction (trace → IR
  /// passes → arena-planned VM; see src/ir/) and serve every request through
  /// it: the candidate-invariant prologue runs once per (user, history) and
  /// feeds the context cache, the per-candidate body replays per chunk with
  /// zero steady-state allocations. Applies to ANY traceable model, not just
  /// SeqFM. Scores stay bit-for-bit identical to Model::Score — the compiler
  /// self-checks both program halves against the traced forward and the
  /// Predictor permanently falls back to the eager path (one warning) if a
  /// lazy per-count compile ever fails. Set to false to force eager serving
  /// (the parity oracle; also bench_serving's compiled-off baseline).
  bool use_compiled_program = true;
  /// Byte budget for the (user, history) SharedContext LRU cache in front of
  /// the factored path; 0 disables caching. Each entry holds the per-request
  /// candidate-invariant tensors, roughly 4*(3*n*d + 4*d) bytes for seq-len
  /// n and dim d (~39 KiB at n=50, d=64), so 64 MiB caches ~1.7k such
  /// contexts. Compiled-program contexts are cached through the same LRU
  /// (their unit is the prologue's slot tensors). Ignored when neither the
  /// compiled nor the hand-factored context path is active.
  size_t context_cache_bytes = 0;
};

/// One ranked catalog entry returned by Predictor::TopK.
struct ScoredItem {
  int32_t item = 0;
  float score = 0.0f;
};

/// \brief Forward-only scoring front end: the serving counterpart of
/// core::Trainer.
///
/// A Predictor wraps a trained model (any core::Model) and scores candidate
/// catalogs without constructing autograd state: every forward runs under
/// autograd::NoGradGuard in micro-batches, and SeqFM requests take the
/// factored catalog program described in PredictorOptions, optionally
/// memoized by a serve::ContextCache. Scoring is read-only on the model and
/// safe to call concurrently after construction; ReloadCheckpoint is the one
/// mutating call and requires the caller to quiesce scoring first
/// (BatchServer::ReloadCheckpoint does).
class Predictor {
 public:
  using ContextPtr = ContextCache::ContextPtr;

  /// Wraps an already-trained in-process model. Both pointers are borrowed
  /// and must outlive the Predictor.
  Predictor(core::Model* model, const data::BatchBuilder* builder,
            PredictorOptions options = {});

  /// Restores \p model from \p checkpoint_path (the model must be an
  /// nn::Module, which SeqFM and every registry baseline is), then wraps it.
  /// Returns the checkpoint's Status error on any load failure.
  static Result<std::unique_ptr<Predictor>> FromCheckpoint(
      core::Model* model, const data::BatchBuilder* builder,
      const std::string& checkpoint_path, PredictorOptions options = {});

  /// Scores each candidate object for the example's (user, history) context.
  /// scores[i] corresponds to candidates[i]. Bit-for-bit identical to
  /// scoring the same candidate batch through Model::Score. Materializes
  /// the full score vector (the evaluator needs it); ranking callers use
  /// TopK, which never does.
  std::vector<float> ScoreCandidates(
      const data::SequenceExample& ex,
      const std::vector<int32_t>& candidates) const;

  /// Top-k of \p candidates under the serving-wide order serve::RankBefore
  /// (score descending, NaN last, ties by candidate id, then position). k is
  /// clamped to candidates.size(). Runs as one ScoreJob through a
  /// serve::LocalShardBackend, so it holds O(k + one chunk per pool thread)
  /// scores, and ranks exactly as BatchServer and Coordinator do.
  std::vector<ScoredItem> TopK(const data::SequenceExample& ex,
                               const std::vector<int32_t>& candidates,
                               size_t k) const;

  /// Top-k over the full object catalog [0, num_objects). The identity
  /// catalog is materialized once at construction, not per request.
  std::vector<ScoredItem> TopKAll(const data::SequenceExample& ex,
                                  size_t k) const;

  /// Reloads model parameters from \p path (hot-swap to a newer training
  /// snapshot) and invalidates the context cache so no request is served
  /// from tensors of the old parameters. No scoring call may be in flight;
  /// serve through BatchServer::ReloadCheckpoint for a quiesced reload.
  ///
  /// After the recompile, the engine's slot ABI is re-verified against its
  /// prologue (ir::Engine::ReverifySlotAbi): a body whose slot wiring no
  /// longer matches what the prologue parks in contexts would read the
  /// wrong floats and serve garbage rankings without crashing. On a
  /// mismatch the reload still succeeds — the parameters are the new ones
  /// — but the compiled path is latched off (one warning) and scoring
  /// falls back to the eager path, which has no slot ABI to violate.
  Status ReloadCheckpoint(const std::string& path);

  /// Test hook: runs on the freshly compiled engine inside every
  /// ReloadCheckpoint, before the slot-ABI re-verification. Lets reload
  /// tests corrupt the slot wiring at exactly the moment a real
  /// miscompilation would introduce it; never set outside tests.
  void SetReloadCorruptionHookForTest(std::function<void(ir::Engine*)> hook) {
    reload_corruption_hook_ = std::move(hook);
  }

  /// Drops all cached contexts. Call after mutating model parameters by any
  /// route other than ReloadCheckpoint. No-op when caching is off.
  void InvalidateContextCache();

  // --- Range-scoring building blocks (used by serve::LocalShardBackend) ---

  /// The (cached) SharedContext for this example. Context path only
  /// (context_path_active() must hold). Compiled contexts carry the
  /// prologue's slot tensors; hand-factored SeqFM contexts the h_dyn/q_dyn/…
  /// tensors.
  ContextPtr AcquireContext(const data::SequenceExample& ex) const;

  /// Scores candidates[begin, end) against \p ctx — through the compiled
  /// body program when compiled_active(), else the hand-factored SeqFM
  /// program — writing the end - begin results to out[0, end - begin).
  /// Taking a chunk-local output buffer (rather than a catalog-sized one
  /// indexed by begin) is what lets ranking bound its memory to one chunk
  /// per pool thread. Sets up its own NoGradGuard, so it can run
  /// directly on pool worker threads. A compiled-path failure (a lazy
  /// per-count body compile that does not verify) permanently disables the
  /// engine and re-scores the chunk through the fallback paths, so results
  /// are always produced.
  void ScoreContextRange(const core::SharedContext& ctx,
                         const data::SequenceExample& ex,
                         const std::vector<int32_t>& candidates,
                         size_t begin, size_t end, float* out) const;

  /// The hand-factored SeqFM catalog program (fast path). Kept callable on
  /// its own as the reference implementation ScoreContextRange falls back
  /// to; requires a hand-factored context (ctx.h_dyn defined).
  void ScoreFactoredRange(const core::SharedContext& ctx,
                          const std::vector<int32_t>& candidates,
                          size_t begin, size_t end, float* out) const;

  /// Generic-path equivalent of ScoreContextRange (any model).
  void ScoreGenericRange(const data::SequenceExample& ex,
                         const std::vector<int32_t>& candidates,
                         size_t begin, size_t end, float* out) const;

  /// True when requests will take the hand-factored SeqFM catalog program
  /// (the pre-compiler fast path; also the compiled path's first fallback).
  bool fast_path_active() const { return seqfm_ != nullptr; }

  /// True when requests will execute the compiled op program.
  bool compiled_active() const {
    return engine_ != nullptr &&
           !engine_failed_.load(std::memory_order_relaxed);
  }

  /// True when requests go through an AcquireContext + Score*Range pair
  /// (compiled or hand-factored) instead of the generic per-chunk rebuild.
  bool context_path_active() const {
    return compiled_active() || fast_path_active();
  }

  /// The compiled engine, or null when the model did not compile (or
  /// use_compiled_program is off). Stats feed bench_serving --json.
  const ir::Engine* engine() const { return engine_.get(); }

  /// Non-null iff the context path is active and context_cache_bytes > 0.
  const ContextCache* context_cache() const { return cache_.get(); }

  /// Scratch-arena counters for the tape-free scoring scopes (process-wide;
  /// see core::ScratchStats). In steady state heap_refills stays flat while
  /// allocations keeps counting — serving without heap allocations.
  core::ScratchStats scratch_stats() const {
    return core::GlobalScratchStats();
  }

  const core::Model* model() const { return model_; }
  const PredictorOptions& options() const { return options_; }

 private:
  /// (Re)compiles the serving program from the model's CURRENT parameters.
  /// Called at construction and again whenever parameters change: the
  /// candidate-invariant split is verified against live parameter values, so
  /// a checkpoint load can shift which values are invariant. Resets
  /// engine_failed_. Requires quiesced scoring (same contract as
  /// ReloadCheckpoint).
  void CompileEngine();

  core::Model* model_;
  const data::BatchBuilder* builder_;
  PredictorOptions options_;
  /// Non-null iff the hand-factored fast path applies to this model+config.
  core::SeqFm* seqfm_ = nullptr;
  /// Non-null iff the model compiled into a (prologue, body) op program.
  std::unique_ptr<ir::Engine> engine_;
  /// Latched on the first compiled-path failure (a per-count body that does
  /// not verify); from then on every request takes the fallback paths.
  /// Memory order audit: relaxed is sufficient — the flag is a pure latch
  /// that publishes no data. A thread observing it stale merely retries the
  /// compiled path and latches again (idempotent); the fallback paths read
  /// only state that was immutable before serving started. The store in
  /// CompileEngine runs with scoring quiesced (ReloadCheckpoint contract),
  /// so it cannot race a latch.
  mutable std::atomic<bool> engine_failed_{false};
  /// Test-only (SetReloadCorruptionHookForTest); empty in production.
  std::function<void(ir::Engine*)> reload_corruption_hook_;
  std::unique_ptr<ContextCache> cache_;
  /// [0, num_objects) — built once so TopKAll does not re-materialize it.
  std::vector<int32_t> full_catalog_;
};

}  // namespace serve
}  // namespace seqfm

#endif  // SEQFM_SERVE_PREDICTOR_H_
