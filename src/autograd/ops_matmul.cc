#include "autograd/ops.h"
#include "autograd/ops_common.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace seqfm {
namespace autograd {

using internal::MakeNode;
using tensor::Tensor;

Variable MatMul(const Variable& a, const Variable& b) {
  SEQFM_CHECK_EQ(a.rank(), 2u);
  SEQFM_CHECK_EQ(b.rank(), 2u);
  Tensor out = internal::OutputBuffer({a.dim(0), b.dim(1)});
  tensor::MatMul(a.value(), b.value(), &out);
  auto node = MakeNode("matmul", {a.node(), b.node()}, std::move(out));
  Node* self = node.get();
  if (node->requires_grad) node->backward_fn = [self]() {
    Node* pa = self->parents[0].get();
    Node* pb = self->parents[1].get();
    // dA = dC · B^T, dB = A^T · dC
    if (pa->requires_grad) {
      pa->EnsureGrad();
      tensor::MatMul(self->grad, pb->value, &pa->grad, /*trans_a=*/false,
                     /*trans_b=*/true, /*accumulate=*/true);
    }
    if (pb->requires_grad) {
      pb->EnsureGrad();
      tensor::MatMul(pa->value, self->grad, &pb->grad, /*trans_a=*/true,
                     /*trans_b=*/false, /*accumulate=*/true);
    }
  };
  return Variable(node);
}

Variable BmmShared(const Variable& a, const Variable& w) {
  SEQFM_CHECK_EQ(a.rank(), 3u);
  SEQFM_CHECK_EQ(w.rank(), 2u);
  SEQFM_CHECK_EQ(a.dim(2), w.dim(0));
  Tensor out = internal::OutputBuffer({a.dim(0), a.dim(1), w.dim(1)});
  tensor::BatchedMatMulShared(a.value(), w.value(), &out);
  auto node = MakeNode("bmm_shared", {a.node(), w.node()}, std::move(out));
  Node* self = node.get();
  if (node->requires_grad) node->backward_fn = [self]() {
    Node* pa = self->parents[0].get();
    Node* pw = self->parents[1].get();
    const size_t rows = pa->value.dim(0) * pa->value.dim(1);
    const size_t k = pa->value.dim(2);
    const size_t n = pw->value.dim(1);
    // Treat [B,n,k] as flattened [B*n,k]: dA = dC · W^T, dW = A^T · dC.
    if (pa->requires_grad) {
      pa->EnsureGrad();
      tensor::Gemm(self->grad.data(), pw->value.data(), pa->grad.data(), rows,
                   n, k, /*trans_a=*/false, /*trans_b=*/true,
                   /*accumulate=*/true);
    }
    if (pw->requires_grad) {
      pw->EnsureGrad();
      tensor::Gemm(pa->value.data(), self->grad.data(), pw->grad.data(), k,
                   rows, n, /*trans_a=*/true, /*trans_b=*/false,
                   /*accumulate=*/true);
    }
  };
  return Variable(node);
}

Variable Bmm(const Variable& a, const Variable& b, bool trans_a,
             bool trans_b) {
  SEQFM_CHECK_EQ(a.rank(), 3u);
  SEQFM_CHECK_EQ(b.rank(), 3u);
  const size_t batch = a.dim(0);
  const size_t m = trans_a ? a.dim(2) : a.dim(1);
  const size_t k = trans_a ? a.dim(1) : a.dim(2);
  const size_t n = trans_b ? b.dim(1) : b.dim(2);
  Tensor out = internal::OutputBuffer({batch, m, n});
  tensor::BatchedMatMul(a.value(), b.value(), &out, trans_a, trans_b);
  TraceAttrs attrs;
  attrs.trans_a = trans_a;
  attrs.trans_b = trans_b;
  auto node = MakeNode("bmm", {a.node(), b.node()}, std::move(out), &attrs);
  Node* self = node.get();
  if (node->requires_grad)
    node->backward_fn = [self, trans_a, trans_b, batch, m, k, n]() {
    Node* pa = self->parents[0].get();
    Node* pb = self->parents[1].get();
    if (pa->requires_grad) pa->EnsureGrad();
    if (pb->requires_grad) pb->EnsureGrad();
    // For C = A'·B' (primed = possibly transposed):
    //   dA' = dC·B'^T and dB' = A'^T·dC, then un-transpose:
    //   trans_a ? dA = (dA')^T = B'·dC^T : dA = dC·B'^T
    // Each batch item owns disjoint slices of dA and dB, so the batch loop
    // splits across the pool (the inner Gemms then run inline).
    const size_t per_item = m * n * k;
    util::ParallelFor(batch,
                      internal::GrainForRows(per_item, util::kMinParallelWork),
                      [=](size_t b0, size_t b1) {
    for (size_t i = b0; i < b1; ++i) {
      const float* ga = self->grad.BatchData(i);
      const float* av = pa->value.BatchData(i);
      const float* bv = pb->value.BatchData(i);
      if (pa->requires_grad) {
        float* da = pa->grad.BatchData(i);
        if (!trans_a) {
          // dA[m,k] += dC[m,n] · (B')^T; B' is [k,n]:
          //   trans_b=false: B is [k,n], use trans_b=true on raw B.
          //   trans_b=true:  B is [n,k] and B' = B^T, so (B')^T = B.
          tensor::Gemm(ga, bv, da, m, n, k, false, !trans_b, true);
        } else {
          // A is [k,m]; dA[k,m] += B'[k,n] · dC^T[n,m].
          if (!trans_b) {
            tensor::Gemm(bv, ga, da, k, n, m, false, true, true);
          } else {
            tensor::Gemm(bv, ga, da, k, n, m, true, true, true);
          }
        }
      }
      if (pb->requires_grad) {
        float* db = pb->grad.BatchData(i);
        if (!trans_b) {
          // B is [k,n]; dB[k,n] += (A')^T[k,m] · dC[m,n].
          tensor::Gemm(av, ga, db, k, m, n, !trans_a, false, true);
        } else {
          // B is [n,k], B' = B^T; dB[n,k] += dC^T[n,m] · A'[m,k]
          //   = (dC^T · A'). Compute as Gemm with trans on dC.
          if (!trans_a) {
            tensor::Gemm(ga, av, db, n, m, k, true, false, true);
          } else {
            // A' = A^T with A [k,m]: dB[n,k] += dC^T[n,m] · A^T[m,k].
            tensor::Gemm(ga, av, db, n, m, k, true, true, true);
          }
        }
      }
    }
    });
  };
  return Variable(node);
}

Variable BmmLeftShared(const Variable& w, const Variable& p) {
  SEQFM_CHECK_EQ(w.rank(), 2u);
  SEQFM_CHECK_EQ(p.rank(), 3u);
  const size_t batch = p.dim(0);
  const size_t h2 = w.dim(0), h = w.dim(1), d = p.dim(2);
  Tensor out = internal::OutputBuffer({batch, h2, d});
  tensor::BatchedMatMulLeftShared(w.value(), p.value(), &out);
  auto node = MakeNode("bmm_left_shared", {w.node(), p.node()}, std::move(out));
  Node* self = node.get();
  if (node->requires_grad) node->backward_fn = [self, batch, h2, h, d]() {
    Node* pw = self->parents[0].get();
    Node* pp = self->parents[1].get();
    if (pw->requires_grad) {
      pw->EnsureGrad();
      // dW[h2,h] += dC[h2,d] · P^T[d,h] summed over the batch into one
      // shared buffer; serial so the reduction order never depends on
      // thread count.
      for (size_t b = 0; b < batch; ++b) {
        tensor::Gemm(self->grad.BatchData(b), pp->value.BatchData(b),
                     pw->grad.data(), h2, d, h, false, true, true);
      }
    }
    if (pp->requires_grad) {
      pp->EnsureGrad();
      // dP[h,d] += W^T[h,h2] · dC[h2,d]: disjoint per batch item.
      util::ParallelFor(batch,
                        internal::GrainForRows(h * h2 * d, util::kMinParallelWork),
                        [=](size_t b0, size_t b1) {
        for (size_t b = b0; b < b1; ++b) {
          tensor::Gemm(pw->value.data(), self->grad.BatchData(b),
                       pp->grad.BatchData(b), h, h2, d, true, false, true);
        }
      });
    }
  };
  return Variable(node);
}

Variable RowDot(const Variable& a, const Variable& b) {
  SEQFM_CHECK_EQ(a.rank(), 2u);
  const size_t batch = a.dim(0), d = a.dim(1);
  Tensor out = internal::OutputBuffer({batch, 1});
  tensor::RowDot(a.value(), b.value(), &out);
  auto node = MakeNode("row_dot", {a.node(), b.node()}, std::move(out));
  Node* self = node.get();
  if (node->requires_grad) node->backward_fn = [self, batch, d]() {
    Node* pa = self->parents[0].get();
    Node* pb = self->parents[1].get();
    if (pa->requires_grad) pa->EnsureGrad();
    if (pb->requires_grad) pb->EnsureGrad();
    util::ParallelFor(batch, internal::GrainForRows(d, internal::kEwGrain),
                      [=](size_t i0, size_t i1) {
      const tensor::kernels::KernelTable& kt = tensor::kernels::Active();
      for (size_t i = i0; i < i1; ++i) {
        const float g = self->grad.at(i, 0);
        if (pa->requires_grad) {
          kt.axpy(g, pb->value.data() + i * d, pa->grad.data() + i * d, d);
        }
        if (pb->requires_grad) {
          kt.axpy(g, pa->value.data() + i * d, pb->grad.data() + i * d, d);
        }
      }
    });
  };
  return Variable(node);
}

}  // namespace autograd
}  // namespace seqfm
