
#include "autograd/ops.h"
#include "autograd/ops_common.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace seqfm {
namespace autograd {

using internal::MakeNode;
using tensor::Tensor;

Variable Add(const Variable& a, const Variable& b) {
  Tensor out = internal::OutputBuffer(a.value().shape());
  tensor::Add(a.value(), b.value(), &out);
  auto node = MakeNode("add", {a.node(), b.node()}, std::move(out));
  Node* self = node.get();
  if (node->requires_grad) node->backward_fn = [self]() {
    for (int i = 0; i < 2; ++i) {
      Node* p = self->parents[i].get();
      if (p->requires_grad) p->AccumulateGrad(self->grad);
    }
  };
  return Variable(node);
}

Variable Sub(const Variable& a, const Variable& b) {
  Tensor out = internal::OutputBuffer(a.value().shape());
  tensor::Sub(a.value(), b.value(), &out);
  auto node = MakeNode("sub", {a.node(), b.node()}, std::move(out));
  Node* self = node.get();
  if (node->requires_grad) node->backward_fn = [self]() {
    Node* pa = self->parents[0].get();
    Node* pb = self->parents[1].get();
    if (pa->requires_grad) pa->AccumulateGrad(self->grad);
    if (pb->requires_grad) {
      pb->EnsureGrad();
      pb->grad.AddScaled(self->grad, -1.0f);
    }
  };
  return Variable(node);
}

Variable Mul(const Variable& a, const Variable& b) {
  Tensor out = internal::OutputBuffer(a.value().shape());
  tensor::Mul(a.value(), b.value(), &out);
  auto node = MakeNode("mul", {a.node(), b.node()}, std::move(out));
  Node* self = node.get();
  if (node->requires_grad) node->backward_fn = [self]() {
    Node* pa = self->parents[0].get();
    Node* pb = self->parents[1].get();
    const size_t n = self->grad.size();
    const tensor::kernels::KernelTable& kt = tensor::kernels::Active();
    if (pa->requires_grad) {
      pa->EnsureGrad();
      const float* g = self->grad.data();
      const float* bv = pb->value.data();
      float* da = pa->grad.data();
      util::ParallelFor(n, internal::kEwGrain, [=, &kt](size_t i0, size_t i1) {
        kt.madd(g + i0, bv + i0, da + i0, i1 - i0);
      });
    }
    if (pb->requires_grad) {
      pb->EnsureGrad();
      const float* g = self->grad.data();
      const float* av = pa->value.data();
      float* db = pb->grad.data();
      util::ParallelFor(n, internal::kEwGrain, [=, &kt](size_t i0, size_t i1) {
        kt.madd(g + i0, av + i0, db + i0, i1 - i0);
      });
    }
  };
  return Variable(node);
}

Variable Scale(const Variable& a, float alpha) {
  Tensor out = internal::OutputBuffer(a.value().shape());
  tensor::Scale(a.value(), alpha, &out);
  TraceAttrs attrs;
  attrs.alpha = alpha;
  auto node = MakeNode("scale", {a.node()}, std::move(out), &attrs);
  Node* self = node.get();
  if (node->requires_grad) node->backward_fn = [self, alpha]() {
    Node* p = self->parents[0].get();
    if (p->requires_grad) {
      p->EnsureGrad();
      p->grad.AddScaled(self->grad, alpha);
    }
  };
  return Variable(node);
}

Variable AddBias(const Variable& x, const Variable& bias) {
  Tensor out = internal::OutputBuffer(x.value().shape());
  tensor::AddBiasLastDim(x.value(), bias.value(), &out);
  auto node = MakeNode("add_bias", {x.node(), bias.node()}, std::move(out));
  Node* self = node.get();
  if (node->requires_grad) node->backward_fn = [self]() {
    Node* px = self->parents[0].get();
    Node* pb = self->parents[1].get();
    if (px->requires_grad) px->AccumulateGrad(self->grad);
    if (pb->requires_grad) {
      pb->EnsureGrad();
      const size_t d = pb->value.dim(0);
      const size_t rows = self->grad.size() / d;
      const float* g = self->grad.data();
      float* db = pb->grad.data();
      for (size_t r = 0; r < rows; ++r) {
        for (size_t j = 0; j < d; ++j) db[j] += g[r * d + j];
      }
    }
  };
  return Variable(node);
}

Variable AddBroadcastBatch(const Variable& x, const Variable& table) {
  SEQFM_CHECK_EQ(x.rank(), 3u);
  SEQFM_CHECK_EQ(table.rank(), 2u);
  SEQFM_CHECK_EQ(x.dim(1), table.dim(0));
  SEQFM_CHECK_EQ(x.dim(2), table.dim(1));
  const size_t batch = x.dim(0), rows = x.dim(1), d = x.dim(2);
  Tensor out = internal::OutputBuffer(x.value().shape());
  tensor::AddBroadcastBatch(x.value(), table.value(), &out);
  auto node =
      MakeNode("add_broadcast_batch", {x.node(), table.node()}, std::move(out));
  Node* self = node.get();
  if (node->requires_grad) node->backward_fn = [self, batch, rows, d]() {
    Node* px = self->parents[0].get();
    Node* pt = self->parents[1].get();
    if (px->requires_grad) px->AccumulateGrad(self->grad);
    if (pt->requires_grad) {
      pt->EnsureGrad();
      // The table gradient sums over the batch into one shared buffer; it
      // stays serial so the reduction order never depends on thread count.
      float* dt = pt->grad.data();
      for (size_t b = 0; b < batch; ++b) {
        const float* g = self->grad.BatchData(b);
        for (size_t i = 0; i < rows * d; ++i) dt[i] += g[i];
      }
    }
  };
  return Variable(node);
}

Variable Relu(const Variable& x) {
  Tensor out = internal::OutputBuffer(x.value().shape());
  tensor::Relu(x.value(), &out);
  auto node = MakeNode("relu", {x.node()}, std::move(out));
  Node* self = node.get();
  if (node->requires_grad) node->backward_fn = [self]() {
    Node* p = self->parents[0].get();
    if (!p->requires_grad) return;
    p->EnsureGrad();
    const size_t n = self->grad.size();
    const float* g = self->grad.data();
    const float* xv = p->value.data();
    float* dx = p->grad.data();
    util::ParallelFor(n, internal::kEwGrain, [=](size_t i0, size_t i1) {
      for (size_t i = i0; i < i1; ++i) {
        if (xv[i] > 0.0f) dx[i] += g[i];
      }
    });
  };
  return Variable(node);
}

Variable Sigmoid(const Variable& x) {
  Tensor out = internal::OutputBuffer(x.value().shape());
  tensor::Sigmoid(x.value(), &out);
  auto node = MakeNode("sigmoid", {x.node()}, std::move(out));
  Node* self = node.get();
  if (node->requires_grad) node->backward_fn = [self]() {
    Node* p = self->parents[0].get();
    if (!p->requires_grad) return;
    p->EnsureGrad();
    const size_t n = self->grad.size();
    const float* g = self->grad.data();
    const float* y = self->value.data();
    float* dx = p->grad.data();
    util::ParallelFor(n, internal::kEwGrain, [=](size_t i0, size_t i1) {
      for (size_t i = i0; i < i1; ++i) dx[i] += g[i] * y[i] * (1.0f - y[i]);
    });
  };
  return Variable(node);
}

Variable Tanh(const Variable& x) {
  Tensor out = internal::OutputBuffer(x.value().shape());
  tensor::Tanh(x.value(), &out);
  auto node = MakeNode("tanh", {x.node()}, std::move(out));
  Node* self = node.get();
  if (node->requires_grad) node->backward_fn = [self]() {
    Node* p = self->parents[0].get();
    if (!p->requires_grad) return;
    p->EnsureGrad();
    const size_t n = self->grad.size();
    const float* g = self->grad.data();
    const float* y = self->value.data();
    float* dx = p->grad.data();
    util::ParallelFor(n, internal::kEwGrain, [=](size_t i0, size_t i1) {
      for (size_t i = i0; i < i1; ++i) dx[i] += g[i] * (1.0f - y[i] * y[i]);
    });
  };
  return Variable(node);
}

}  // namespace autograd
}  // namespace seqfm
