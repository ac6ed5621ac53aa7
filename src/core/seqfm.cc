#include "core/seqfm.h"

#include <cmath>
#include <utility>

#include "autograd/ops.h"
#include "autograd/trace.h"
#include "tensor/init.h"

namespace seqfm {
namespace core {

using autograd::Variable;
using tensor::Tensor;

SeqFm::SeqFm(const data::FeatureSpace& space, const SeqFmConfig& config)
    : config_(config), space_(space), rng_(config.seed) {
  SEQFM_CHECK_GT(config_.embedding_dim, 0u);
  SEQFM_CHECK_GT(config_.max_seq_len, 0u);
  SEQFM_CHECK(config_.use_static_view || config_.use_dynamic_view ||
              config_.use_cross_view)
      << "at least one view must be enabled";
  const size_t d = config_.embedding_dim;

  static_embedding_ =
      std::make_unique<nn::Embedding>(space_.static_dim(), d, &rng_);
  dynamic_embedding_ =
      std::make_unique<nn::Embedding>(space_.dynamic_dim(), d, &rng_);
  RegisterModule("static_embedding", static_embedding_.get());
  RegisterModule("dynamic_embedding", dynamic_embedding_.get());

  if (config_.use_static_view) {
    static_attention_ = std::make_unique<nn::SelfAttention>(d, &rng_);
    RegisterModule("static_attention", static_attention_.get());
  }
  if (config_.use_dynamic_view) {
    dynamic_attention_ = std::make_unique<nn::SelfAttention>(d, &rng_);
    RegisterModule("dynamic_attention", dynamic_attention_.get());
  }
  if (config_.use_cross_view) {
    cross_attention_ = std::make_unique<nn::SelfAttention>(d, &rng_);
    RegisterModule("cross_attention", cross_attention_.get());
  }
  ffn_ = std::make_unique<nn::ResidualFeedForward>(
      d, config_.ffn_layers, &rng_, config_.use_residual,
      config_.use_layer_norm);
  RegisterModule("shared_ffn", ffn_.get());

  w0_ = RegisterParameter("w0", Tensor::Zeros({1}));
  w_static_ =
      RegisterParameter("w_static", Tensor::Zeros({space_.static_dim(), 1}));
  w_dynamic_ =
      RegisterParameter("w_dynamic", Tensor::Zeros({space_.dynamic_dim(), 1}));
  Tensor p({num_views() * d, 1});
  tensor::FillXavier(&p, &rng_);
  p_ = RegisterParameter("p", std::move(p));

  causal_mask_ = nn::MakeCausalMask(config_.max_seq_len);
  if (config_.use_cross_view) {
    // Materialize the cross mask for the standard BatchBuilder layout
    // (n_static = 2: user + candidate one-hots) so concurrent tape-free
    // Score calls never hit the lazy rebuild below — that write is the one
    // piece of mutable state in an otherwise read-only eval forward.
    cross_mask_ = nn::MakeCrossMask(2, config_.max_seq_len);
  }
}

SeqFm::ServingView SeqFm::serving_view() const {
  ServingView view;
  view.static_embedding = static_embedding_.get();
  view.dynamic_embedding = dynamic_embedding_.get();
  view.static_attention = static_attention_.get();
  view.dynamic_attention = dynamic_attention_.get();
  view.cross_attention = cross_attention_.get();
  view.ffn = ffn_.get();
  view.w0 = w0_;
  view.w_static = w_static_;
  view.w_dynamic = w_dynamic_;
  view.p = p_;
  view.causal_mask = causal_mask_;
  return view;
}

size_t SharedContext::ApproxBytes() const {
  size_t total = dynamic_ids.size() * sizeof(int32_t) + sizeof(*this);
  for (const autograd::Variable* v :
       {&h_dyn, &q_dyn, &k_dyn, &v_dyn, &k_user, &v_user, &out_user}) {
    if (v->defined()) total += v->value().size() * sizeof(float);
  }
  for (const tensor::Tensor& t : slots) total += t.size() * sizeof(float);
  return total;
}

SharedContext SeqFm::ComputeSharedContext(
    int32_t user_index, std::vector<int32_t> dynamic_ids) const {
  namespace ag = autograd;
  SEQFM_CHECK(config_.use_static_view && config_.use_dynamic_view &&
              config_.use_cross_view && !config_.mask_padding_keys)
      << "SharedContext requires the default three-view configuration";
  SEQFM_CHECK_EQ(dynamic_ids.size(), config_.max_seq_len);

  SharedContext ctx;
  ctx.n = config_.max_seq_len;
  ctx.d = config_.embedding_dim;
  ctx.inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(ctx.d));
  ctx.user_index = user_index;
  ctx.dynamic_ids = std::move(dynamic_ids);

  // Tape-free no matter the caller's mode: cached contexts must not pin an
  // autograd graph, and results are bit-identical either way.
  ag::NoGradGuard no_grad;

  // Dynamic view: depends only on the history, so one row suffices.
  Variable e_dyn =
      dynamic_embedding_->Forward(ctx.dynamic_ids, 1, ctx.n);
  Variable h = dynamic_attention_->Forward(e_dyn, causal_mask_);
  Variable pooled = ag::MeanAxis1(h, static_cast<float>(ctx.n));
  ctx.h_dyn = ffn_->Forward(pooled, config_.keep_prob, /*training=*/false,
                            /*rng=*/nullptr);

  // Cross view, history side: projections of the dynamic rows and the full
  // output of the user row (a static row attends only to dynamic columns,
  // none of which involve the candidate).
  ctx.q_dyn = ag::BmmShared(e_dyn, cross_attention_->wq());
  ctx.k_dyn = ag::BmmShared(e_dyn, cross_attention_->wk());
  ctx.v_dyn = ag::BmmShared(e_dyn, cross_attention_->wv());

  const std::vector<int32_t> user_only = {ctx.user_index};
  Variable e_user = static_embedding_->Forward(user_only, 1, 1);
  Variable q_user = ag::BmmShared(e_user, cross_attention_->wq());
  ctx.k_user = ag::BmmShared(e_user, cross_attention_->wk());
  ctx.v_user = ag::BmmShared(e_user, cross_attention_->wv());

  Variable su = ag::Scale(ag::Bmm(q_user, ctx.k_dyn, false, true),
                          ctx.inv_sqrt_d);               // [1, 1, n]
  Variable pu = ag::MaskedSoftmax(su, Variable());
  ctx.out_user = ag::Bmm(pu, ctx.v_dyn);                 // [1, 1, d]
  return ctx;
}

size_t SeqFm::num_views() const {
  return (config_.use_static_view ? 1u : 0u) +
         (config_.use_dynamic_view ? 1u : 0u) +
         (config_.use_cross_view ? 1u : 0u);
}

Variable SeqFm::PoolAndRefine(const Variable& h, float divisor,
                              bool training) {
  // Eq. 14: intra-view mean pooling with the fixed view length as divisor.
  Variable pooled = autograd::MeanAxis1(h, divisor);
  // Eq. 15: shared residual feed-forward refinement with dropout.
  return ffn_->Forward(pooled, config_.keep_prob, training, &rng_);
}

namespace {

/// Per-sample cross-view mask [B*(ns+nd), ns+nd] that blocks same-category
/// pairs (Eq. 13) and, additionally, attention to dynamic padding keys.
Variable MakePaddingAwareCrossMask(const std::vector<int32_t>& dynamic_ids,
                                   size_t batch, size_t ns, size_t nd) {
  const size_t n = ns + nd;
  Tensor mask({batch * n, n});
  for (size_t b = 0; b < batch; ++b) {
    nn::CrossPaddingMaskBlock(dynamic_ids.data() + b * nd, ns, nd,
                              mask.data() + b * n * n);
  }
  Variable v = Variable::Constant(std::move(mask));
  autograd::TraceAnnotateConstant(v, autograd::ConstantKind::kCrossPaddingMask);
  return v;
}

}  // namespace

Variable SeqFm::Score(const data::Batch& batch, bool training) {
  SEQFM_CHECK_EQ(batch.n_seq, config_.max_seq_len)
      << "batch built with a different max_seq_len";
  const size_t batch_size = batch.batch_size;
  const size_t ns = batch.n_static;
  const size_t nd = batch.n_seq;

  Variable e_static =
      static_embedding_->Forward(batch.static_ids, batch_size, ns);
  Variable e_dynamic =
      dynamic_embedding_->Forward(batch.dynamic_ids, batch_size, nd);

  std::vector<Variable> views;
  views.reserve(3);
  if (config_.use_static_view) {
    // Eq. 8: unmasked self-attention over static features.
    Variable h = static_attention_->Forward(e_static, Variable());
    views.push_back(PoolAndRefine(h, static_cast<float>(ns), training));
  }
  if (config_.use_dynamic_view) {
    // Eqs. 9-10: causally masked self-attention over the sequence.
    Variable mask = config_.mask_padding_keys
                        ? nn::MakeBatchPaddingMask(batch.dynamic_ids,
                                                   batch_size, nd,
                                                   /*causal=*/true)
                        : causal_mask_;
    Variable h = dynamic_attention_->Forward(e_dynamic, mask);
    views.push_back(PoolAndRefine(h, static_cast<float>(nd), training));
  }
  if (config_.use_cross_view) {
    // Eqs. 11-13: stacked features with the cross-block mask.
    Variable e_cross = autograd::ConcatAxis1(e_static, e_dynamic);
    Variable mask;
    if (config_.mask_padding_keys) {
      mask = MakePaddingAwareCrossMask(batch.dynamic_ids, batch_size, ns, nd);
    } else {
      if (!cross_mask_.defined() ||
          cross_mask_.value().dim(0) != ns + nd) {
        cross_mask_ = nn::MakeCrossMask(ns, nd);
      }
      mask = cross_mask_;
    }
    Variable h = cross_attention_->Forward(e_cross, mask);
    views.push_back(PoolAndRefine(h, static_cast<float>(ns + nd), training));
  }

  // Eq. 17-18: view-wise aggregation and projection to a scalar.
  Variable h_agg =
      views.size() == 1 ? views[0] : autograd::ConcatLastDim(views);
  Variable f = autograd::MatMul(h_agg, p_);

  // Eq. 19 linear terms: global bias + first-order feature weights.
  Variable linear = autograd::Add(
      autograd::EmbeddingSumGather(w_static_, batch.static_ids, batch_size, ns),
      autograd::EmbeddingSumGather(w_dynamic_, batch.dynamic_ids, batch_size,
                                   nd));
  return autograd::AddBias(autograd::Add(f, linear), w0_);
}

}  // namespace core
}  // namespace seqfm
