#ifndef SEQFM_AUTOGRAD_OPS_H_
#define SEQFM_AUTOGRAD_OPS_H_

#include <cstdint>
#include <vector>

#include "autograd/variable.h"
#include "util/rng.h"

namespace seqfm {
namespace autograd {

/// Differentiable operations. Every function builds one graph node whose
/// backward closure implements the analytic gradient; all gradients are
/// verified against finite differences in tests/autograd_gradcheck_test.cc.

// ---------------------------------------------------------------------------
// Elementwise & broadcast arithmetic
// ---------------------------------------------------------------------------

/// c = a + b (same shape).
Variable Add(const Variable& a, const Variable& b);
/// c = a - b (same shape).
Variable Sub(const Variable& a, const Variable& b);
/// c = a ⊙ b (same shape).
Variable Mul(const Variable& a, const Variable& b);
/// c = alpha * a.
Variable Scale(const Variable& a, float alpha);
/// Broadcast-add a rank-1 bias over the last dimension of x.
Variable AddBias(const Variable& x, const Variable& bias);
/// Broadcast-add a rank-2 [n, d] table over the batch dim of x [B, n, d]
/// (positional embeddings).
Variable AddBroadcastBatch(const Variable& x, const Variable& table);

/// Activations.
Variable Relu(const Variable& x);
Variable Sigmoid(const Variable& x);
Variable Tanh(const Variable& x);

// ---------------------------------------------------------------------------
// Matrix products
// ---------------------------------------------------------------------------

/// Rank-2 product: [m,k]·[k,n] -> [m,n].
Variable MatMul(const Variable& a, const Variable& b);

/// Rank-3 × rank-2 (shared weight) product: [B,n,k]·[k,m] -> [B,n,m].
Variable BmmShared(const Variable& a, const Variable& w);

/// Per-batch product with optional transposes:
/// [B,n,k]·[B,k,m] -> [B,n,m]; trans flags transpose the trailing two dims.
Variable Bmm(const Variable& a, const Variable& b, bool trans_a = false,
             bool trans_b = false);

/// Rank-2 × rank-3 left product: W [h2,h] applied per batch item of
/// p [B,h,d] -> [B,h2,d]. Used by the xDeepFM CIN layer.
Variable BmmLeftShared(const Variable& w, const Variable& p);

/// Row-wise dot product of two [B,d] tensors -> [B,1].
Variable RowDot(const Variable& a, const Variable& b);

// ---------------------------------------------------------------------------
// Softmax / normalization / regularization
// ---------------------------------------------------------------------------

/// Softmax over the last dim of (x + mask), mask broadcast over batch.
/// \p mask is a constant [rows, cols] additive tensor (entries 0 or -inf);
/// pass an empty Variable for unmasked softmax.
Variable MaskedSoftmax(const Variable& x, const Variable& mask);

/// Layer normalization over the last dimension with learnable gain/bias
/// (Eq. 16 of the paper): y = gamma ⊙ (x - mu)/sqrt(var + eps) + beta.
Variable LayerNorm(const Variable& x, const Variable& gamma,
                   const Variable& beta, float eps = 1e-5f);

/// Inverted dropout. Keeps activations with probability \p keep_prob and
/// rescales by 1/keep_prob; identity when !training or keep_prob >= 1.
Variable Dropout(const Variable& x, float keep_prob, bool training, Rng* rng);

// ---------------------------------------------------------------------------
// Structural ops
// ---------------------------------------------------------------------------

/// Concatenates rank-2 [B,d_i] tensors along the last dim -> [B, sum d_i].
Variable ConcatLastDim(const std::vector<Variable>& parts);

/// Concatenates rank-3 [B,n_i,d] tensors along axis 1 -> [B, sum n_i, d]
/// (the cross-view E* = [E_static; E_dynamic], Eq. 12).
Variable ConcatAxis1(const Variable& a, const Variable& b);

/// Mean over axis 1 with an explicit divisor: [B,n,d] -> [B,d], each output
/// = (1/divisor) * sum of rows (intra-view pooling, Eq. 14).
Variable MeanAxis1(const Variable& x, float divisor);

/// Sum over axis 1: [B,n,d] -> [B,d].
Variable SumAxis1(const Variable& x);

/// Extracts row \p row from axis 1: [B,n,d] -> [B,d].
Variable SliceRow(const Variable& x, size_t row);

/// Sum over the last dim keeping a trailing 1: [B,d] -> [B,1] and
/// [B,n,d] -> [B,n,1].
Variable SumLastDimKeep(const Variable& x);

/// Reinterprets the tensor with a new shape of equal element count (row-major
/// layout is preserved, so this is free apart from one copy).
Variable Reshape(const Variable& x, std::vector<size_t> shape);

/// Repeats each row of a [B,d] tensor n times along a new axis 1 -> [B,n,d]
/// (gradient sums over the repeats). Used by DIN's candidate broadcast.
Variable ExpandRows(const Variable& x, size_t n);

/// Sum of all elements -> scalar [1].
Variable SumAll(const Variable& x);

/// Mean of all elements -> scalar [1].
Variable MeanAll(const Variable& x);

/// All ordered pairs i<j of rows multiplied elementwise:
/// [B,n,d] -> [B, n(n-1)/2, d]. Used by AFM's pairwise interaction layer.
Variable PairwiseProductUpper(const Variable& x);

/// Cross products of all row pairs from two stacks:
/// a [B,h,d], b [B,m,d] -> [B, h*m, d] with out[b, i*m+j] = a[b,i] ⊙ b[b,j].
/// Used by the xDeepFM CIN layer.
Variable PairwiseProductCross(const Variable& a, const Variable& b);

// ---------------------------------------------------------------------------
// Embedding
// ---------------------------------------------------------------------------

/// Gathers rows of \p table [V,d] by \p indices (length B*n, row-major
/// [B,n]); negative indices produce a zero row and receive no gradient
/// (padding). Result is [B,n,d]. The pointer overload does not require the
/// buffer to outlive the call (the backward closure copies when a tape is
/// recording), so serving can pass scratch-arena blocks.
Variable EmbeddingGather(const Variable& table, const int32_t* indices,
                         size_t batch, size_t n);
Variable EmbeddingGather(const Variable& table,
                         const std::vector<int32_t>& indices, size_t batch,
                         size_t n);

/// Gathers rows of a [V,1] weight column and sums per sample -> [B,1].
/// This is the first-order linear term of FMs; negative indices are skipped.
Variable EmbeddingSumGather(const Variable& weights, const int32_t* indices,
                            size_t batch, size_t n);
Variable EmbeddingSumGather(const Variable& weights,
                            const std::vector<int32_t>& indices, size_t batch,
                            size_t n);

// ---------------------------------------------------------------------------
// Losses (all return scalar [1], averaged over the batch)
// ---------------------------------------------------------------------------

/// BPR loss (Eq. 21): mean of -log sigmoid(pos - neg), inputs [B,1].
Variable BprLoss(const Variable& pos, const Variable& neg);

/// Binary cross-entropy on logits (Eq. 24): numerically stable
/// mean of softplus(x) - y*x, inputs [B,1], labels length B in {0,1}.
Variable BceWithLogitsLoss(const Variable& logits,
                           const std::vector<float>& labels);

/// Squared error loss (Eq. 26): mean of (pred - target)^2, inputs [B,1].
Variable MseLoss(const Variable& pred, const std::vector<float>& targets);

}  // namespace autograd
}  // namespace seqfm

#endif  // SEQFM_AUTOGRAD_OPS_H_
