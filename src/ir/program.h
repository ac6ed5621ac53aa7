#ifndef SEQFM_IR_PROGRAM_H_
#define SEQFM_IR_PROGRAM_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "autograd/variable.h"
#include "tensor/tensor.h"

namespace seqfm {
namespace ir {

/// \brief The serving compiler's flat op program.
///
/// A Program is a straight-line SSA-ish instruction list recorded by tracing
/// one tape-free model forward (trace.h), then rewritten by the optimization
/// passes (passes.h) and executed allocation-free by the VM (exec.h). Every
/// instruction reads and writes Value ids; shapes are static — a program is
/// specialized to one candidate count and recompiled (cheaply) for another.

/// Instruction opcode. The first block mirrors the autograd op vocabulary
/// one-to-one (the executor calls the same tensor:: forward as each autograd
/// op); the second block exists only in compiled programs.
enum class OpKind : uint8_t {
  kAdd,
  kSub,
  kMul,
  kScale,
  kAddBias,
  kAddBroadcastBatch,
  kRelu,
  kSigmoid,
  kTanh,
  kMatMul,
  kBmmShared,
  kBmm,
  kBmmLeftShared,
  kRowDot,
  kMaskedSoftmax,
  kLayerNorm,
  kConcatLast,
  kConcatAxis1,
  kReduceAxis1,  // mean_axis1 / sum_axis1; alpha carries the scale
  kSliceRow,
  kSumLast,
  kReshape,
  kExpandRows,
  kPairwiseUpper,
  kPairwiseCross,
  kEmbeddingGather,
  kEmbeddingSumGather,
  // --- compiler-synthesized (no eager counterpart) ----------------------
  kPaddingMask,       // nn::MakeBatchPaddingMask(dynamic_ids, B, n, causal)
  kHistoryMask,       // nn::MakeHistoryPaddingMask(dynamic_ids, B, n)
  kCrossPaddingMask,  // SeqFM's padding-aware cross mask (ns in Instr::row)
  kZeros,             // zero tensor (GRU initial state)
  kTileRows,          // repeat the whole input buffer out.size/in.size times
};

/// Name of an op kind ("scale", "tile_rows", ...) for logs and tests. Both
/// this and OpKindFromName read one spelling table (program.cc).
const char* OpKindName(OpKind kind);

/// The OpKind of the autograd op named \p name (Node::op). Only the first,
/// eager-mirroring block of kinds is traceable: kReduceAxis1 has the two
/// spellings "mean_axis1" and "sum_axis1", and compiler-synthesized kinds
/// have none. Returns false for an untraceable name.
bool OpKindFromName(const std::string& name, OpKind* kind);

/// How a Value resolves to a tensor at execution time.
enum class ValueKind : uint8_t {
  kLocal,     // planned offset in the execution frame's arena block
  kParam,     // live parameter Node (survives checkpoint reloads)
  kConstant,  // captured by value into Program::constants
  kSlot,      // candidate-invariant prologue output, SharedContext::slots
};

/// Which request index array an embedding gather reads.
enum class IndexSource : uint8_t { kNone, kStatic, kDynamic, kUnified };

/// Affine per-column binding of a gather's index matrix to one request index
/// array: idx[b, j] == src[b, cols[j]] + deltas[j], except negative source
/// entries (padding) stay negative untouched. Fitted at trace time against a
/// real Batch and re-verified on every trace; the executor synthesizes the
/// source arrays per chunk, so gathers need no per-request index vectors.
struct IndexBinding {
  IndexSource source = IndexSource::kNone;
  std::vector<uint32_t> cols;
  std::vector<int32_t> deltas;

  bool operator==(const IndexBinding& o) const {
    return source == o.source && cols == o.cols && deltas == o.deltas;
  }
  bool operator!=(const IndexBinding& o) const { return !(*this == o); }
};

constexpr uint32_t kNoValue = 0xffffffffu;

struct Instr {
  OpKind kind = OpKind::kAdd;
  std::vector<uint32_t> in;  // input value ids, positional
  uint32_t out = 0;
  // Scalar attributes (only the fields the kind needs are meaningful).
  float alpha = 0.0f;    // scale / reduce_axis1
  float eps = 0.0f;      // layer_norm
  uint32_t row = 0;      // slice_row; cross-padding mask's n_static
  bool trans_a = false;  // bmm
  bool trans_b = false;
  bool causal = false;  // padding mask
  IndexBinding binding;  // embedding gathers
  /// Gathers only: the index matrix observed at trace time, kept so passes
  /// can re-verify the binding against other traces. Not used at execution.
  std::vector<int32_t> traced_indices;
};

struct Value {
  ValueKind kind = ValueKind::kLocal;
  std::vector<size_t> shape;
  /// kParam: the live node (raw; Program::param_nodes keeps it alive).
  autograd::Node* param = nullptr;
  /// kConstant / kSlot: index into Program::constants / SharedContext::slots.
  uint32_t index = 0;
  /// kLocal: planned float offset into the frame block (passes::PlanArena);
  /// kNoOffset until planned or for dead values.
  size_t offset = 0;
  /// Fusion: when != kNoValue this local shares its buffer with that value
  /// (in-place elementwise chains, copy-elided reshapes).
  uint32_t alias_of = kNoValue;

  size_t size() const {
    size_t n = 1;
    for (size_t d : shape) n *= d;
    return n;
  }
};

constexpr size_t kNoOffset = static_cast<size_t>(-1);

struct Program {
  std::vector<Value> values;
  std::vector<Instr> instrs;
  std::vector<tensor::Tensor> constants;
  /// Keepalives for the raw Node* in Value::param. Checkpoint reloads move
  /// new storage into the same nodes, so params are read live per execution.
  std::vector<autograd::NodePtr> param_nodes;
  /// Value id of the score tensor (bodies) — unused by prologues.
  uint32_t output = kNoValue;
  /// Value ids written into SharedContext::slots, in slot order (prologues).
  std::vector<uint32_t> slot_outputs;

  /// Candidate count the trace ran at, and the Batch index geometry the
  /// executor synthesizes per chunk.
  size_t count = 0;
  size_t n_static = 0;
  size_t n_seq = 0;
  size_t n_unified = 0;

  /// Planned frame block size in floats (passes::PlanArena).
  size_t frame_floats = 0;
  /// Key for the per-thread execution frame cache.
  uint64_t uid = 0;
  /// Liveness of this uid, shared by the program's copies. Execution frames
  /// hold it weakly, so each thread frees the frames of destroyed programs
  /// the next time it creates a frame (ir/exec.cc).
  std::shared_ptr<const uint64_t> alive;
};

/// Process-unique id (program uids and ir::Engine::uid()).
uint64_t NextProgramUid();

/// Gives \p prog a fresh uid and liveness token.
void AssignProgramUid(Program* prog);

/// Materializes a compiler-synthesized mask/zeros instruction into the
/// \p total floats at \p dst from the request history, through the same
/// per-sample block builder the eager mask uses (nn/masks.h), repeated for
/// every sample. Shared by the executor and the trace-time verification.
///   kPaddingMask:      [batch*n, n], causal per Instr::causal
///   kHistoryMask:      [batch, n]
///   kCrossPaddingMask: [batch*(ns+n), ns+n], ns = Instr::row
///   kZeros:            all zero
/// \p dynamic_ids is one history row of length \p n (every sample of a
/// serving chunk shares it); \p total must be a whole number of blocks.
void MaterializeMask(OpKind kind, bool causal, size_t ns,
                     const int32_t* dynamic_ids, size_t n, size_t total,
                     float* dst);

}  // namespace ir
}  // namespace seqfm

#endif  // SEQFM_IR_PROGRAM_H_
