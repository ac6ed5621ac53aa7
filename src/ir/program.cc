#include "ir/program.h"

#include <algorithm>
#include <atomic>

#include "nn/masks.h"
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

void MaterializeMask(OpKind kind, bool causal, size_t ns,
                     const int32_t* dynamic_ids, size_t n, size_t total,
                     float* dst) {
  size_t block = 0;
  switch (kind) {
    case OpKind::kZeros:
      std::fill(dst, dst + total, 0.0f);
      return;
    case OpKind::kPaddingMask:
      block = n * n;
      SEQFM_CHECK(total >= block && total % block == 0);
      nn::PaddingMaskBlock(dynamic_ids, n, causal, dst);
      break;
    case OpKind::kHistoryMask:
      block = n;
      SEQFM_CHECK(total >= block && total % block == 0);
      nn::HistoryMaskBlock(dynamic_ids, n, dst);
      break;
    case OpKind::kCrossPaddingMask:
      block = (ns + n) * (ns + n);
      SEQFM_CHECK(total >= block && total % block == 0);
      nn::CrossPaddingMaskBlock(dynamic_ids, ns, n, dst);
      break;
    default:
      SEQFM_CHECK(false) << "not a synthesized constant: "
                         << OpKindName(kind);
  }
  // All samples of a serving chunk share one history, so the block repeats.
  for (size_t off = block; off < total; off += block) {
    std::copy(dst, dst + block, dst + off);
  }
}

}  // namespace ir
}  // namespace seqfm
