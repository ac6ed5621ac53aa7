#ifndef SEQFM_AUTOGRAD_TRACE_H_
#define SEQFM_AUTOGRAD_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "autograd/variable.h"

namespace seqfm {
namespace autograd {

/// \brief Trace hooks: how the serving compiler (src/ir/) observes the eager
/// forward.
///
/// The IR tracer runs a model's tape-free forward once with a thread-local
/// recording sink armed. internal::MakeNode calls TraceRecord for every op
/// node it builds — before the no-grad early return, so the parents are
/// visible even though the detached node drops them — and ops whose semantics
/// are not recoverable from shapes alone (scales, slices, gathers, ...) pass
/// a TraceAttrs alongside. The hook costs one thread-local load when no trace
/// is active, so training and plain serving never notice it (pinned by the
/// loss-curve invariance test in tests/ir_test.cc).
///
/// The sink itself lives in src/ir/trace.cc; this header only breaks the
/// dependency cycle (ir depends on autograd, not vice versa).

/// Per-op scalar attributes the tracer cannot derive from the recorded
/// shapes. Ops fill only the fields that apply.
struct TraceAttrs {
  /// scale alpha; mean_axis1 records 1/divisor here.
  float alpha = 0.0f;
  /// layer_norm epsilon.
  float eps = 0.0f;
  /// slice_row row index.
  size_t row = 0;
  /// bmm transpose flags.
  bool trans_a = false;
  bool trans_b = false;
  /// embedding gathers: the index matrix ([idx_batch, idx_n] row-major) and
  /// its logical shape. The pointer is only dereferenced synchronously inside
  /// TraceRecord (the tracer copies what it needs).
  const int32_t* indices = nullptr;
  size_t idx_batch = 0;
  size_t idx_n = 0;
};

/// True when the current thread has a recording sink armed.
bool TracingActive();

/// Records one executed op into the active sink (no-op when none is armed).
/// \p parents is the op's input nodes in positional order; \p node already
/// carries op name and output value.
void TraceRecord(const NodePtr& node, const std::vector<NodePtr>& parents,
                 const TraceAttrs* attrs);

/// How a Variable::Constant reachable from a serving forward may be handled
/// by the compiler. Constants with no annotation poison the trace (the
/// tracer cannot know whether their value depends on the request), which
/// makes the predictor fall back to the eager path for that model.
enum class ConstantKind : uint8_t {
  /// Fixed at model construction (causal/cross/zero masks): the compiler
  /// captures the tensor by value.
  kCaptureValue = 0,
  /// nn::MakeBatchPaddingMask(dynamic_ids, batch, n, causal): depends only
  /// on the request history; re-materialized by the executor.
  kPaddingMask = 1,
  /// nn::MakeHistoryPaddingMask(dynamic_ids, batch, n) ([batch, n] additive
  /// mask, DIN): depends only on the request history.
  kHistoryMask = 2,
  /// core::SeqFm's padding-aware cross-attention mask
  /// ([2, 2 + n] additive mask): depends only on the request history.
  kCrossPaddingMask = 3,
  /// Tensor::Zeros of a batch-scaled shape (GRU initial state).
  kZeroState = 4,
};

/// Declares how the constant \p v was built so the tracer can classify it.
/// For the input-derived kinds the builder passes the same \p causal flag it
/// was called with (unused otherwise). The annotation is stamped on the node
/// itself — not the sink — so constants built at model-construction time,
/// before any trace exists, are classified correctly by every later trace.
void TraceAnnotateConstant(const Variable& v, ConstantKind kind,
                           bool causal = false);

}  // namespace autograd
}  // namespace seqfm

#endif  // SEQFM_AUTOGRAD_TRACE_H_
