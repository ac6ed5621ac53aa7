#ifndef SEQFM_TENSOR_OPS_H_
#define SEQFM_TENSOR_OPS_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/tensor.h"
#include "util/thread_pool.h"

namespace seqfm {
namespace tensor {

/// Forward compute kernels shared by the autograd layer. All kernels take an
/// \p accumulate flag: when true they add into the output (used for gradient
/// accumulation), otherwise they overwrite it.
///
/// Raw GEMM core: C[m,n] (+)= A op B with optional transposition.
///   trans_a == false: A is [m,k] row-major; true: A is [k,m] and used as A^T.
///   trans_b == false: B is [k,n] row-major; true: B is [n,k] and used as B^T.
///
/// The kernel is cache-blocked, register-tiled, and dispatches row chunks of
/// C across the global util::ThreadPool once the problem is large enough.
/// Each output element sums its k products in ascending order into a private
/// accumulator added to C exactly once, so results are bit-for-bit identical
/// to GemmReference for every thread count.
///
/// Degenerate sizes are handled explicitly: m == 0 or n == 0 is a no-op and
/// k == 0 is an empty sum (C is zeroed unless accumulating). Null pointers
/// with non-degenerate sizes abort.
void Gemm(const float* a, const float* b, float* c, size_t m, size_t k,
          size_t n, bool trans_a, bool trans_b, bool accumulate);

/// Naive single-threaded triple-loop GEMM with the same contract as Gemm.
/// The comparison oracle for tests and the baseline for bench_micro_ops.
void GemmReference(const float* a, const float* b, float* c, size_t m,
                   size_t k, size_t n, bool trans_a, bool trans_b,
                   bool accumulate);

/// C = A · B for rank-2 tensors; shape-checked wrappers over Gemm.
void MatMul(const Tensor& a, const Tensor& b, Tensor* out,
            bool trans_a = false, bool trans_b = false,
            bool accumulate = false);

/// Batched GEMM over rank-3 tensors: out[i] (+)= A[i] op B[i] per batch item.
void BatchedMatMul(const Tensor& a, const Tensor& b, Tensor* out,
                   bool trans_a = false, bool trans_b = false,
                   bool accumulate = false);

/// out[i] (+)= A[i] · W (rank-3 lhs, shared rank-2 rhs). Equivalent to
/// flattening A to [batch*rows, k], provided as a convenience.
void BatchedMatMulShared(const Tensor& a, const Tensor& w, Tensor* out,
                         bool trans_w = false, bool accumulate = false);

/// Row-wise softmax over the last dimension. If \p mask is non-null it must
/// point to a [rows_per_batch x cols] additive mask (0 or -inf style values)
/// that is broadcast over the leading batch dimension before normalizing.
/// Works for rank-2 ([rows, cols]) and rank-3 ([batch, rows, cols]) input.
void SoftmaxLastDim(const Tensor& in, const Tensor* mask, Tensor* out);

/// Elementwise kernels (same-shape in/out).
void Add(const Tensor& a, const Tensor& b, Tensor* out);
void Sub(const Tensor& a, const Tensor& b, Tensor* out);
void Mul(const Tensor& a, const Tensor& b, Tensor* out);
void Relu(const Tensor& in, Tensor* out);
void Sigmoid(const Tensor& in, Tensor* out);
void Tanh(const Tensor& in, Tensor* out);

/// Broadcast-add a rank-1 bias of size d over the last dimension.
void AddBiasLastDim(const Tensor& in, const Tensor& bias, Tensor* out);

/// out = alpha * in (same shape; in == out is allowed).
void Scale(const Tensor& in, float alpha, Tensor* out);

/// out[b] = x[b] + table for rank-3 x [batch, rows, d], table [rows, d].
void AddBroadcastBatch(const Tensor& x, const Tensor& table, Tensor* out);

/// out[b] = W · P[b] for W [h2, h], P [batch, h, d] -> [batch, h2, d].
void BatchedMatMulLeftShared(const Tensor& w, const Tensor& p, Tensor* out);

/// out[i] = <a[i], b[i]> for rank-2 [batch, d] -> [batch, 1].
void RowDot(const Tensor& a, const Tensor& b, Tensor* out);

/// Layer normalization over the last dimension with affine gamma/beta [d].
/// \p xhat (same shape as \p x) and \p inv_std (one float per row) receive
/// the normalized activations and per-row inverse stddev when non-null —
/// the taped op's backward state; the arithmetic is identical either way.
void LayerNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
               float eps, Tensor* out, Tensor* xhat = nullptr,
               float* inv_std = nullptr);

/// Structural copies.
/// Concatenates rank-2 [batch, d_i] parts along the last dimension.
void ConcatLastDim(const std::vector<const Tensor*>& parts, Tensor* out);
/// Concatenates rank-3 [batch, na, d] and [batch, nb, d] along axis 1.
void ConcatAxis1(const Tensor& a, const Tensor& b, Tensor* out);
/// out[b] = in[b, row] for rank-3 in -> [batch, d].
void SliceRow(const Tensor& in, size_t row, Tensor* out);
/// Flat element copy between equally sized tensors (reshape's copy).
void CopyFlat(const Tensor& in, Tensor* out);
/// Repeats each row of rank-2 [batch, d] out.dim(1) times -> [batch, n, d].
void ExpandRows(const Tensor& in, Tensor* out);
/// Products of every unordered row pair (i < j, row-major pair order) of
/// rank-3 [batch, n, d] -> [batch, n(n-1)/2, d].
void PairwiseProductUpper(const Tensor& in, Tensor* out);
/// Products of every (a row i, b row j) pair, i-major, of [batch, h, d] and
/// [batch, m, d] -> [batch, h*m, d].
void PairwiseProductCross(const Tensor& a, const Tensor& b, Tensor* out);

/// Embedding gathers. \p index_at(b, j) yields sample b's j-th table row:
/// negative is padding (a zero row, or no term in the sum) and any other
/// value must be below the table's row count.
/// out[b, j] = table[index_at(b, j)] for out [batch, n, d].
template <typename IndexAt>
void EmbeddingGather(const Tensor& table, IndexAt index_at, Tensor* out) {
  SEQFM_CHECK_EQ(table.rank(), 2u);
  SEQFM_CHECK_EQ(out->rank(), 3u);
  const size_t vocab = table.dim(0), d = table.dim(1);
  SEQFM_CHECK_EQ(out->dim(2), d);
  const size_t n = out->dim(1);
  const float* tv = table.data();
  float* out_data = out->data();
  // Gather rows are disjoint writes, so the flat row loop splits freely.
  util::ParallelFor(out->dim(0) * n, util::GrainForRows(d, util::kEwGrain),
                    [=](size_t i0, size_t i1) {
    for (size_t i = i0, b = i0 / n, j = i0 % n; i < i1; ++i) {
      const int32_t idx = index_at(b, j);
      if (++j == n) {
        j = 0;
        ++b;
      }
      float* dst = out_data + i * d;
      if (idx < 0) {  // padding -> zero row (output may be uninitialized)
        for (size_t c = 0; c < d; ++c) dst[c] = 0.0f;
        continue;
      }
      SEQFM_CHECK_LT(static_cast<size_t>(idx), vocab);
      const float* src = tv + static_cast<size_t>(idx) * d;
      for (size_t c = 0; c < d; ++c) dst[c] = src[c];
    }
  });
}
/// out[b] = sum over j < n of weights[index_at(b, j)] for weights [vocab, 1]
/// and out [batch, 1], summed in ascending j.
template <typename IndexAt>
void EmbeddingSumGather(const Tensor& weights, IndexAt index_at, size_t n,
                        Tensor* out) {
  SEQFM_CHECK_EQ(weights.rank(), 2u);
  SEQFM_CHECK_EQ(weights.dim(1), 1u);
  const size_t vocab = weights.dim(0);
  const float* wv = weights.data();
  float* out_data = out->data();
  util::ParallelFor(out->size(), util::GrainForRows(n, util::kEwGrain),
                    [=](size_t b0, size_t b1) {
    for (size_t b = b0; b < b1; ++b) {
      float acc = 0.0f;
      for (size_t j = 0; j < n; ++j) {
        const int32_t idx = index_at(b, j);
        if (idx < 0) continue;
        SEQFM_CHECK_LT(static_cast<size_t>(idx), vocab);
        acc += wv[idx];
      }
      out_data[b] = acc;
    }
  });
}

/// Reductions.
/// Sums rank-3 [batch, rows, cols] over rows -> [batch, cols], scaled.
void SumAxis1(const Tensor& in, float scale, Tensor* out,
              bool accumulate = false);
/// Sums over the last dimension: [.., d] -> [.., 1] semantics, emitted as a
/// rank-2 [rows, 1] tensor for rank-2 input.
void SumLastDim(const Tensor& in, Tensor* out);
/// Sum of all elements.
float SumAll(const Tensor& in);

/// Numerically stable sigmoid for scalars.
inline float StableSigmoid(float x) {
  if (x >= 0.0f) {
    const float z = std::exp(-x);
    return 1.0f / (1.0f + z);
  }
  const float z = std::exp(x);
  return z / (1.0f + z);
}

/// log(sigmoid(x)) computed stably.
inline float LogSigmoid(float x) {
  // log sigmoid(x) = -log(1 + e^{-x}) = min(x,0) - log(1 + e^{-|x|})
  const float m = x < 0.0f ? x : 0.0f;
  return m - std::log1p(std::exp(-std::abs(x)));
}

}  // namespace tensor
}  // namespace seqfm

#endif  // SEQFM_TENSOR_OPS_H_
