#ifndef SEQFM_IR_EXEC_H_
#define SEQFM_IR_EXEC_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/model_interface.h"
#include "core/seqfm.h"
#include "data/dataset.h"
#include "ir/program.h"
#include "util/ordered_mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace seqfm {
namespace ir {

/// \brief The serving VM: executes arena-planned programs allocation-free.
///
/// An Engine owns the factored (prologue, body) program pair compiled from
/// two traces of one model. serve::Predictor drives it: MakeContext runs the
/// prologue once per (user, history) and parks the candidate-invariant slot
/// tensors in the SharedContext (cached by serve::ContextCache); ScoreRange
/// replays the per-candidate body over a catalog chunk. Execution state lives
/// in thread-local frames sized by PlanArena, so steady-state scoring
/// performs zero heap allocations and is trivially thread-safe.

/// Evaluates one pure instruction (no request-dependent inputs) by calling
/// the tensor:: forward its autograd op calls (tensor/ops.h), so compiled
/// results are bit-identical to the taped forward at every thread count and
/// SIMD level.
/// Returns false for kinds that are not pure functions of their tensor
/// inputs (gathers, synthesized masks, tile_rows), which the executor and
/// the constant folder handle themselves.
bool EvalPure(const Instr& instr, const std::vector<const tensor::Tensor*>& in,
              tensor::Tensor* out);

/// Test hook: execution frames the calling thread holds (one per program it
/// has run, minus those freed after their program was destroyed).
size_t ThreadFrameCountForTest();

/// Compile-time facts about an engine, surfaced in bench_serving --json.
struct EngineStats {
  size_t prologue_instrs = 0;
  size_t body_instrs = 0;       // for the initial count-2 body
  size_t slots = 0;             // candidate-invariant values hoisted
  size_t prologue_frame_floats = 0;
  size_t body_frame_floats = 0;  // for the initial count-2 body
  size_t folded = 0;             // constant-folded instructions (both halves)
  size_t dce_removed = 0;        // dead instructions removed (both halves)
  size_t fused = 0;              // elementwise links aliased in place
  size_t compiled_counts = 0;    // distinct candidate counts compiled so far
};

/// A compiled serving program for one model. Thread-safe after construction:
/// ScoreRange may be called concurrently from shard threads; per-count body
/// compilation is serialized internally.
class Engine {
 public:
  /// Traces \p model at candidate counts 1 and 2, factors the program into a
  /// candidate-invariant prologue and a per-candidate body, runs the pass
  /// pipeline, and self-checks both halves bit-for-bit against the traced
  /// tensors. Returns null (with \p error set) when the model is not
  /// compilable — unknown op, unannotated constant, unbindable gather — in
  /// which case the caller keeps the eager path. Requires at least two
  /// catalog objects (two distinct probe candidates are what disambiguate
  /// the candidate column in gather bindings).
  static std::unique_ptr<Engine> Compile(core::Model* model,
                                         const data::BatchBuilder* builder,
                                         size_t num_objects,
                                         std::string* error);

  /// Runs the prologue for one (user, history) request and fills
  /// \p ctx with the slot tensors (deep copies — the context outlives the
  /// execution frame), ids, and this engine's uid. \p dynamic_ids is the
  /// BatchBuilder-layout history row (length max_seq_len, -1 padding).
  void MakeContext(int32_t user_index, const std::vector<int32_t>& dynamic_ids,
                   core::SharedContext* ctx) const;

  /// Scores candidates[begin..end) against \p ctx into out[0..end-begin).
  /// Lazily compiles (and self-checks) a body for this chunk's candidate
  /// count on first use. Returns false with \p error set if that compile
  /// fails — the caller falls back to the eager path for the chunk.
  bool ScoreRange(const core::SharedContext& ctx,
                  const std::vector<int32_t>& candidates, size_t begin,
                  size_t end, float* out, std::string* error) const;

  /// Number of slot tensors a context carries.
  size_t num_slots() const { return prologue_.slot_outputs.size(); }

  /// Re-checks the slot ABI between the prologue and every compiled body:
  /// each body value of kind kSlot must name a slot the prologue actually
  /// produces, with the exact shape the prologue parks in the context. The
  /// initial Compile establishes this by construction; serving re-verifies
  /// it at every checkpoint reload (Predictor::ReloadCheckpoint) because a
  /// body scoring through a stale or miswired slot reads the wrong floats
  /// — garbage rankings, no crash. Returns Internal naming the first
  /// mismatched (body count, value, slot).
  Status ReverifySlotAbi() const SEQFM_EXCLUDES(mu_);

  /// Test hook: miswires the first kSlot value of some compiled body —
  /// \p corrupt_shape distorts its shape, otherwise its slot index is
  /// pushed out of range. Exists so reload tests can prove ReverifySlotAbi
  /// catches both failure classes; never called outside tests.
  void CorruptSlotWiringForTest(bool corrupt_shape) SEQFM_EXCLUDES(mu_);

  uint64_t uid() const { return uid_; }

  EngineStats stats() const;

 private:
  Engine() = default;

  /// Traces fresh at counts 1 and \p count, factors, optimizes, verifies,
  /// and self-checks. Fresh traces (not stored ones) keep the verification
  /// honest after checkpoint reloads swap parameter storage. Runs WITHOUT
  /// mu_ held — tracing dispatches ParallelFor work, and holding the engine
  /// lock across a pool region inverts against wave chunk tasks that call
  /// ScoreRange from inside pool work (see util::lock_rank). On success the
  /// body is published into bodies_[count] under a short mu_ critical
  /// section; concurrent compiles of the same count are tolerated
  /// (first insert wins, both results are bit-identical).
  bool CompileCount(size_t count, bool adopt_prologue,
                    std::string* error) const SEQFM_EXCLUDES(mu_);

  core::Model* model_ = nullptr;
  const data::BatchBuilder* builder_ = nullptr;
  size_t num_objects_ = 0;
  // Probe request used for (re)tracing: user 0, history {0}.
  std::vector<int32_t> probe_history_;
  // Index synthesis geometry (see RunProgram in exec.cc).
  int32_t cand_base_ = 0;         // FeatureSpace::CandidateIndex(0)
  int32_t unified_dyn_base_ = 0;  // static_dim: unified id of dynamic 0
  size_t n_seq_ = 0;
  uint64_t uid_ = 0;

  // mutable: written once by Compile's initial CompileCount call, via the
  // same const path ScoreRange uses for lazy per-count bodies. Immutable
  // after Compile returns (the engine is not published until Compile
  // completes, and checkpoint reloads build a new Engine), so readers need
  // no lock; not GUARDED_BY for that reason.
  mutable Program prologue_;

  /// Innermost rank: acquired for bodies_/stats_ publication and lookup
  /// only, never held across a compile or a pool region.
  mutable util::OrderedMutex mu_{"ir::Engine::mu_",
                                 util::lock_rank::kIrEngine};
  mutable std::unordered_map<size_t, std::unique_ptr<Program>> bodies_
      SEQFM_GUARDED_BY(mu_);
  mutable EngineStats stats_ SEQFM_GUARDED_BY(mu_);
};

}  // namespace ir
}  // namespace seqfm

#endif  // SEQFM_IR_EXEC_H_
