#include "ir/program.h"

#include <atomic>
#include <limits>

#include "util/logging.h"

namespace seqfm {
namespace ir {

namespace {

/// The one spelling table behind OpKindName and OpKindFromName. Traced
/// spellings are the autograd Node::op names; kReduceAxis1 has two of them
/// (the first names it in logs), and the compiler-synthesized kinds are
/// never traced.
struct OpKindSpelling {
  const char* name;
  OpKind kind;
  bool traced;
};

constexpr OpKindSpelling kOpKindSpellings[] = {
    {"add", OpKind::kAdd, true},
    {"sub", OpKind::kSub, true},
    {"mul", OpKind::kMul, true},
    {"scale", OpKind::kScale, true},
    {"add_scalar", OpKind::kAddScalar, true},
    {"add_bias", OpKind::kAddBias, true},
    {"add_broadcast_batch", OpKind::kAddBroadcastBatch, true},
    {"relu", OpKind::kRelu, true},
    {"sigmoid", OpKind::kSigmoid, true},
    {"tanh", OpKind::kTanh, true},
    {"matmul", OpKind::kMatMul, true},
    {"bmm_shared", OpKind::kBmmShared, true},
    {"bmm", OpKind::kBmm, true},
    {"bmm_left_shared", OpKind::kBmmLeftShared, true},
    {"row_dot", OpKind::kRowDot, true},
    {"masked_softmax", OpKind::kMaskedSoftmax, true},
    {"layer_norm", OpKind::kLayerNorm, true},
    {"concat_last", OpKind::kConcatLast, true},
    {"concat_axis1", OpKind::kConcatAxis1, true},
    {"mean_axis1", OpKind::kReduceAxis1, true},
    {"sum_axis1", OpKind::kReduceAxis1, true},
    {"slice_row", OpKind::kSliceRow, true},
    {"sum_last", OpKind::kSumLast, true},
    {"reshape", OpKind::kReshape, true},
    {"expand_rows", OpKind::kExpandRows, true},
    {"pairwise_upper", OpKind::kPairwiseUpper, true},
    {"pairwise_cross", OpKind::kPairwiseCross, true},
    {"embedding_gather", OpKind::kEmbeddingGather, true},
    {"embedding_sum_gather", OpKind::kEmbeddingSumGather, true},
    {"padding_mask", OpKind::kPaddingMask, false},
    {"history_mask", OpKind::kHistoryMask, false},
    {"cross_padding_mask", OpKind::kCrossPaddingMask, false},
    {"zeros", OpKind::kZeros, false},
    {"tile_rows", OpKind::kTileRows, false},
};

}  // namespace

const char* OpKindName(OpKind kind) {
  for (const OpKindSpelling& s : kOpKindSpellings) {
    if (s.kind == kind) return s.name;
  }
  return "?";
}

bool OpKindFromName(const std::string& name, OpKind* kind) {
  for (const OpKindSpelling& s : kOpKindSpellings) {
    if (s.traced && name == s.name) {
      *kind = s.kind;
      return true;
    }
  }
  return false;
}

uint64_t NextProgramUid() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

void AssignProgramUid(Program* prog) {
  prog->uid = NextProgramUid();
  prog->alive = std::make_shared<const uint64_t>(prog->uid);
}

namespace {
constexpr float kNegInf = -std::numeric_limits<float>::infinity();

/// One-sample padding mask block [n, n] (nn::MakeBatchPaddingMask row b).
void PaddingMaskBlock(bool causal, const int32_t* dyn, size_t n, float* dst) {
  for (size_t i = 0; i < n; ++i) {
    float* row = dst + i * n;
    bool any_open = false;
    for (size_t j = 0; j < n; ++j) {
      const bool blocked_causal = causal && i < j;
      const bool blocked_pad = dyn[j] < 0;
      row[j] = (blocked_causal || blocked_pad) ? kNegInf : 0.0f;
      any_open = any_open || row[j] == 0.0f;
    }
    if (!any_open) row[i] = 0.0f;
  }
}

/// One-sample history mask row [n] (nn::MakeHistoryPaddingMask row b).
void HistoryMaskBlock(const int32_t* dyn, size_t n, float* dst) {
  bool any = false;
  for (size_t i = 0; i < n; ++i) {
    const bool pad = dyn[i] < 0;
    dst[i] = pad ? kNegInf : 0.0f;
    any = any || !pad;
  }
  if (!any) dst[n - 1] = 0.0f;
}

/// One-sample padding-aware cross mask block [(ns+n), (ns+n)]
/// (core::SeqFm's MakePaddingAwareCrossMask row b).
void CrossMaskBlock(size_t ns, const int32_t* dyn, size_t nd, float* dst) {
  const size_t n = ns + nd;
  for (size_t i = 0; i < n; ++i) {
    float* row = dst + i * n;
    const bool i_static = i < ns;
    bool any_open = false;
    for (size_t j = 0; j < n; ++j) {
      const bool j_static = j < ns;
      bool blocked = (i_static == j_static);
      if (!j_static && dyn[j - ns] < 0) blocked = true;
      row[j] = blocked ? kNegInf : 0.0f;
      any_open = any_open || !blocked;
    }
    if (!any_open) row[i] = 0.0f;
  }
}
}  // namespace

void MaterializeMask(OpKind kind, bool causal, size_t ns,
                     const int32_t* dynamic_ids, size_t batch, size_t n,
                     size_t total, float* dst) {
  size_t block = 0;
  switch (kind) {
    case OpKind::kZeros:
      for (size_t i = 0; i < total; ++i) dst[i] = 0.0f;
      return;
    case OpKind::kPaddingMask:
      block = n * n;
      SEQFM_CHECK_EQ(batch * block, total);
      PaddingMaskBlock(causal, dynamic_ids, n, dst);
      break;
    case OpKind::kHistoryMask:
      block = n;
      SEQFM_CHECK_EQ(batch * block, total);
      HistoryMaskBlock(dynamic_ids, n, dst);
      break;
    case OpKind::kCrossPaddingMask:
      block = (ns + n) * (ns + n);
      SEQFM_CHECK_EQ(batch * block, total);
      CrossMaskBlock(ns, dynamic_ids, n, dst);
      break;
    default:
      SEQFM_CHECK(false) << "not a synthesized constant: "
                         << OpKindName(kind);
  }
  // All samples of a serving chunk share one history, so the block repeats.
  for (size_t b = 1; b < batch; ++b) {
    float* out = dst + b * block;
    for (size_t i = 0; i < block; ++i) out[i] = dst[i];
  }
}

}  // namespace ir
}  // namespace seqfm
