#include "nn/masks.h"

#include <limits>

#include "autograd/trace.h"
#include "tensor/tensor.h"

namespace seqfm {
namespace nn {

namespace {
constexpr float kNegInf = -std::numeric_limits<float>::infinity();
}  // namespace

autograd::Variable MakeCausalMask(size_t n) {
  tensor::Tensor mask({n, n});
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      mask.at(i, j) = (i >= j) ? 0.0f : kNegInf;
    }
  }
  autograd::Variable v = autograd::Variable::Constant(std::move(mask));
  autograd::TraceAnnotateConstant(v, autograd::ConstantKind::kCaptureValue);
  return v;
}

autograd::Variable MakeCrossMask(size_t n_static, size_t n_dynamic) {
  const size_t n = n_static + n_dynamic;
  tensor::Tensor mask({n, n});
  for (size_t i = 0; i < n; ++i) {
    const bool i_static = i < n_static;
    for (size_t j = 0; j < n; ++j) {
      const bool j_static = j < n_static;
      // Eq. 13: keep only static <-> dynamic interactions.
      mask.at(i, j) = (i_static != j_static) ? 0.0f : kNegInf;
    }
  }
  autograd::Variable v = autograd::Variable::Constant(std::move(mask));
  autograd::TraceAnnotateConstant(v, autograd::ConstantKind::kCaptureValue);
  return v;
}

autograd::Variable MakeBatchPaddingMask(const std::vector<int32_t>& indices,
                                        size_t batch, size_t n, bool causal) {
  SEQFM_CHECK_EQ(indices.size(), batch * n);
  tensor::Tensor mask({batch * n, n});
  for (size_t b = 0; b < batch; ++b) {
    PaddingMaskBlock(indices.data() + b * n, n, causal,
                     mask.data() + b * n * n);
  }
  autograd::Variable v = autograd::Variable::Constant(std::move(mask));
  autograd::TraceAnnotateConstant(v, autograd::ConstantKind::kPaddingMask,
                                  causal);
  return v;
}

autograd::Variable MakeHistoryPaddingMask(const std::vector<int32_t>& indices,
                                          size_t batch, size_t n) {
  SEQFM_CHECK_EQ(indices.size(), batch * n);
  tensor::Tensor mask({batch, n});
  for (size_t b = 0; b < batch; ++b) {
    HistoryMaskBlock(indices.data() + b * n, n, mask.data() + b * n);
  }
  autograd::Variable v = autograd::Variable::Constant(std::move(mask));
  autograd::TraceAnnotateConstant(v, autograd::ConstantKind::kHistoryMask);
  return v;
}

void PaddingMaskBlock(const int32_t* ids, size_t n, bool causal, float* dst) {
  for (size_t i = 0; i < n; ++i) {
    float* row = dst + i * n;
    bool any_open = false;
    for (size_t j = 0; j < n; ++j) {
      const bool blocked_causal = causal && i < j;
      const bool blocked_pad = ids[j] < 0;
      row[j] = (blocked_causal || blocked_pad) ? kNegInf : 0.0f;
      any_open = any_open || row[j] == 0.0f;
    }
    if (!any_open) row[i] = 0.0f;  // keep the diagonal open
  }
}

void HistoryMaskBlock(const int32_t* ids, size_t n, float* dst) {
  bool any = false;
  for (size_t i = 0; i < n; ++i) {
    const bool pad = ids[i] < 0;
    dst[i] = pad ? kNegInf : 0.0f;
    any = any || !pad;
  }
  if (!any) dst[n - 1] = 0.0f;  // degenerate empty history
}

void CrossPaddingMaskBlock(const int32_t* ids, size_t ns, size_t nd,
                           float* dst) {
  const size_t n = ns + nd;
  for (size_t i = 0; i < n; ++i) {
    float* row = dst + i * n;
    const bool i_static = i < ns;
    bool any_open = false;
    for (size_t j = 0; j < n; ++j) {
      const bool j_static = j < ns;
      const bool blocked =
          i_static == j_static || (!j_static && ids[j - ns] < 0);
      row[j] = blocked ? kNegInf : 0.0f;
      any_open = any_open || !blocked;
    }
    if (!any_open) row[i] = 0.0f;  // keep the diagonal open
  }
}

}  // namespace nn
}  // namespace seqfm
