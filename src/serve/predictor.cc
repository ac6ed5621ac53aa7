#include "serve/predictor.h"

#include <algorithm>
#include <numeric>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "nn/module.h"
#include "serve/backend.h"
#include "serve/checkpoint.h"
#include "serve/shard.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace seqfm {
namespace serve {

using autograd::Variable;

Predictor::Predictor(core::Model* model, const data::BatchBuilder* builder,
                     PredictorOptions options)
    : model_(model), builder_(builder), options_(options) {
  SEQFM_CHECK(model_ != nullptr) << "Predictor: null model";
  SEQFM_CHECK(builder_ != nullptr) << "Predictor: null batch builder";
  SEQFM_CHECK_GT(options_.micro_batch, 0u);
  if (options_.enable_seqfm_fast_path) {
    auto* seqfm = dynamic_cast<core::SeqFm*>(model_);
    // The factored program mirrors the default three-view forward; ablated
    // or padding-masked configurations fall back to the generic path. So
    // does a builder/model seq-len mismatch: the generic path then fails
    // through SeqFm::Score's loud shape check instead of reading a
    // truncated index buffer here.
    if (seqfm != nullptr && seqfm->config().use_static_view &&
        seqfm->config().use_dynamic_view && seqfm->config().use_cross_view &&
        !seqfm->config().mask_padding_keys &&
        builder_->max_seq_len() == seqfm->config().max_seq_len) {
      seqfm_ = seqfm;
    }
  }
  CompileEngine();
  if ((seqfm_ != nullptr || engine_ != nullptr) &&
      options_.context_cache_bytes > 0) {
    cache_ = std::make_unique<ContextCache>(options_.context_cache_bytes);
  }
  full_catalog_.resize(builder_->space().num_objects());
  std::iota(full_catalog_.begin(), full_catalog_.end(), 0);
}

void Predictor::CompileEngine() {
  engine_.reset();
  engine_failed_.store(false, std::memory_order_relaxed);
  if (!options_.use_compiled_program ||
      builder_->space().num_objects() < 2 ||
      builder_->space().num_users() < 1) {
    return;
  }
  // Trace the model into a static op program (src/ir/). Compile failure is
  // expected for untraceable models and simply keeps the eager paths; the
  // compiler has already self-checked any engine it returns.
  std::string error;
  engine_ = ir::Engine::Compile(model_, builder_,
                                builder_->space().num_objects(), &error);
  if (engine_ == nullptr) {
    SEQFM_LOG(Info) << "serving compiler: '" << model_->name()
                    << "' stays on the eager path (" << error << ")";
  }
}

Result<std::unique_ptr<Predictor>> Predictor::FromCheckpoint(
    core::Model* model, const data::BatchBuilder* builder,
    const std::string& checkpoint_path, PredictorOptions options) {
  SEQFM_CHECK(model != nullptr) << "Predictor::FromCheckpoint: null model";
  auto* module = dynamic_cast<nn::Module*>(model);
  if (module == nullptr) {
    return Status::InvalidArgument(
        "model '" + model->name() + "' is not an nn::Module; cannot restore");
  }
  SEQFM_RETURN_NOT_OK(Checkpoint::Load(module, checkpoint_path));
  return std::make_unique<Predictor>(model, builder, options);
}

Status Predictor::ReloadCheckpoint(const std::string& path) {
  auto* module = dynamic_cast<nn::Module*>(model_);
  if (module == nullptr) {
    return Status::InvalidArgument(
        "model '" + model_->name() + "' is not an nn::Module; cannot restore");
  }
  SEQFM_RETURN_NOT_OK(Checkpoint::Load(module, path));
  // The load swapped parameter tensors in place: every cached context now
  // describes the old weights, and the compiled program's candidate-
  // invariant split was verified against the old values (an untrained
  // all-zero weight column is candidate-invariant; its trained replacement
  // is not), so both are rebuilt. The caller has quiesced scoring.
  InvalidateContextCache();
  // Re-verify the slot ABI of the fresh engine before any request scores
  // through it: a body slot miswired against the prologue reads the wrong
  // context floats and serves garbage rankings without crashing — the one
  // compiled-path failure the per-count self-checks cannot catch, because
  // each half verifies in isolation. A mismatch does not fail the reload
  // (the parameters ARE the new checkpoint); it latches the compiled path
  // off and serving falls back to the eager path.
  if (engine_ != nullptr) {
    if (reload_corruption_hook_) reload_corruption_hook_(engine_.get());
    const Status abi = engine_->ReverifySlotAbi();
    if (!abi.ok()) {
      SEQFM_LOG(Warning) << "serving compiler: slot ABI re-verification "
                            "failed after checkpoint reload; serving falls "
                            "back to the eager path: "
                         << abi.ToString();
      engine_failed_.store(true, std::memory_order_relaxed);
    }
  }
  return Status::OK();
}

void Predictor::InvalidateContextCache() {
  if (cache_) cache_->Invalidate();
  // Mutated parameters invalidate the compiled factorization for the same
  // reason they invalidate cached contexts; recompile from the new values.
  CompileEngine();
}

std::vector<float> Predictor::ScoreCandidates(
    const data::SequenceExample& ex,
    const std::vector<int32_t>& candidates) const {
  const size_t total = candidates.size();
  if (total == 0) return {};
  const ContextPtr ctx =
      context_path_active() ? AcquireContext(ex) : ContextPtr();
  const size_t chunk_size = options_.micro_batch;
  const size_t num_chunks = (total + chunk_size - 1) / chunk_size;
  std::vector<float> scores(total);

  // Safe to fan out from the first chunk: eval-mode Score is read-only for
  // every model (SeqFM materializes its cross mask in its constructor, and
  // the baselines build masks as per-call locals).
  util::ParallelFor(num_chunks, 1, [&](size_t c0, size_t c1) {
    for (size_t c = c0; c < c1; ++c) {
      const size_t begin = c * chunk_size;
      const size_t end = std::min(total, begin + chunk_size);
      if (ctx != nullptr) {
        ScoreContextRange(*ctx, ex, candidates, begin, end,
                          scores.data() + begin);
      } else {
        ScoreGenericRange(ex, candidates, begin, end, scores.data() + begin);
      }
    }
  });
  return scores;
}

void Predictor::ScoreGenericRange(const data::SequenceExample& ex,
                                  const std::vector<int32_t>& candidates,
                                  size_t begin, size_t end, float* out) const {
  // Grad mode is thread-scoped, so the guard must live here — this runs
  // directly on pool workers (ScoreCandidates and LocalShardBackend chunks).
  // The scratch scope routes every op output of the forward into the
  // worker's arena; results are copied into `out` before it closes.
  autograd::NoGradGuard no_grad;
  core::ScratchScope scratch;
  std::vector<const data::SequenceExample*> repeated(end - begin, &ex);
  std::vector<int32_t> override_chunk(candidates.begin() + begin,
                                      candidates.begin() + end);
  data::Batch batch = builder_->Build(repeated, &override_chunk);
  Variable scored = model_->Score(batch, /*training=*/false);
  SEQFM_CHECK_EQ(scored.value().size(), end - begin);
  const float* src = scored.value().data();
  for (size_t i = 0; i < end - begin; ++i) out[i] = src[i];
}

Predictor::ContextPtr Predictor::AcquireContext(
    const data::SequenceExample& ex) const {
  SEQFM_CHECK(context_path_active())
      << "AcquireContext requires the compiled or hand-factored context path";
  // Reuse the BatchBuilder for the index layout so padding and index mapping
  // are byte-identical to the taped path.
  const std::vector<const data::SequenceExample*> one = {&ex};
  const data::Batch base = builder_->Build(one);
  const int32_t user_index = base.static_ids[0];
  const size_t n = builder_->max_seq_len();
  std::vector<int32_t> dynamic_ids(
      base.dynamic_ids.begin(),
      base.dynamic_ids.begin() + static_cast<ptrdiff_t>(n));
  auto compute = [&]() -> ContextPtr {
    if (compiled_active()) {
      auto ctx = std::make_shared<core::SharedContext>();
      engine_->MakeContext(user_index, dynamic_ids, ctx.get());
      return ctx;
    }
    return std::make_shared<const core::SharedContext>(
        seqfm_->ComputeSharedContext(user_index, dynamic_ids));
  };
  if (cache_) return cache_->GetOrCompute(user_index, dynamic_ids, compute);
  return compute();
}

void Predictor::ScoreContextRange(const core::SharedContext& ctx,
                                  const data::SequenceExample& ex,
                                  const std::vector<int32_t>& candidates,
                                  size_t begin, size_t end, float* out) const {
  if (compiled_active() && ctx.engine_uid == engine_->uid()) {
    std::string error;
    if (engine_->ScoreRange(ctx, candidates, begin, end, out, &error)) {
      return;
    }
    // A lazy per-count body failed to compile or verify. Latch the failure
    // (warn once), drop contexts that carry now-unusable slot tensors, and
    // serve this and every later chunk through the reference paths.
    if (!engine_failed_.exchange(true)) {
      SEQFM_LOG(Warning) << "serving compiler: disabling compiled path for '"
                         << model_->name() << "': " << error;
      if (cache_) cache_->Invalidate();
    }
  }
  if (fast_path_active() && ctx.h_dyn.defined()) {
    ScoreFactoredRange(ctx, candidates, begin, end, out);
    return;
  }
  ScoreGenericRange(ex, candidates, begin, end, out);
}

void Predictor::ScoreFactoredRange(const core::SharedContext& ctx,
                                   const std::vector<int32_t>& candidates,
                                   size_t begin, size_t end,
                                   float* out_scores) const {
  namespace ag = autograd;
  autograd::NoGradGuard no_grad;
  // Every intermediate of the factored program below lives in the worker
  // thread's scratch arena and is released wholesale when this chunk
  // returns — zero tensor heap traffic once the arena is warm. The scores
  // are copied into out_scores before the scope closes.
  core::ScratchScope scratch;
  const core::SeqFm::ServingView view = seqfm_->serving_view();
  const core::SeqFmConfig& cfg = seqfm_->config();
  const data::FeatureSpace& space = builder_->space();
  const size_t count = end - begin;
  const size_t n = ctx.n, d = ctx.d;

  // Index layout mirrors BatchBuilder::Build: [user, candidate] per row.
  // The id vectors ride the worker's scratch arena too (released with the
  // scope), so a warm chunk performs zero heap allocations end to end; the
  // embedding ops take raw pointers and copy only if a tape is recording.
  int32_t* static_ids = core::ThreadScratchArena().AllocateInts(count * 3);
  int32_t* cand_ids = static_ids + count * 2;
  for (size_t i = 0; i < count; ++i) {
    static_ids[2 * i] = ctx.user_index;
    static_ids[2 * i + 1] = space.CandidateIndex(candidates[begin + i]);
    cand_ids[i] = static_ids[2 * i + 1];
  }

  // Static view: candidate-dependent but tiny (two rows); this is the
  // identical computation the full forward runs.
  Variable e_static = view.static_embedding->Forward(static_ids, count, 2);
  Variable h_att = view.static_attention->Forward(e_static, Variable());
  Variable h_stat = view.ffn->Forward(ag::MeanAxis1(h_att, 2.0f),
                                      cfg.keep_prob, false, nullptr);

  // Cross view, candidate side.
  Variable e_cand = view.static_embedding->Forward(cand_ids, count, 1);
  Variable q_cand = ag::BmmShared(e_cand, view.cross_attention->wq());
  Variable k_cand = ag::BmmShared(e_cand, view.cross_attention->wk());
  Variable v_cand = ag::BmmShared(e_cand, view.cross_attention->wv());

  // Candidate static rows attend to every history column.
  Variable sc = ag::Scale(ag::Bmm(ag::Reshape(q_cand, {1, count, d}),
                                  ctx.k_dyn, false, true),
                          ctx.inv_sqrt_d);               // [1, count, n]
  Variable pc = ag::MaskedSoftmax(sc, Variable());
  Variable out_cand =
      ag::Reshape(ag::Bmm(pc, ctx.v_dyn), {count, 1, d});

  // History rows attend to the two static columns (user, candidate). The
  // user column is shared; only the candidate column changes per item.
  Variable s_user = ag::Bmm(ctx.q_dyn, ctx.k_user, false, true);  // [1,n,1]
  Variable s_user_tiled = ag::Reshape(
      ag::ExpandRows(ag::Reshape(s_user, {1, n}), count), {count * n, 1});
  Variable s_cand = ag::Reshape(
      ag::Bmm(ag::Reshape(k_cand, {1, count, d}), ctx.q_dyn, false, true),
      {count * n, 1});                                   // [c-major]
  Variable probs2 = ag::MaskedSoftmax(
      ag::Scale(ag::ConcatLastDim({s_user_tiled, s_cand}), ctx.inv_sqrt_d),
      Variable());                                       // [count*n, 2]

  Variable v_user_tiled = ag::Reshape(
      ag::ExpandRows(ag::Reshape(ctx.v_user, {1, d}), count * n),
      {count * n, 1, d});
  Variable v_cand_tiled = ag::Reshape(
      ag::ExpandRows(ag::Reshape(v_cand, {count, d}), n), {count * n, 1, d});
  Variable v_pairs = ag::ConcatAxis1(v_user_tiled, v_cand_tiled);
  Variable out_dyn = ag::Reshape(
      ag::Bmm(ag::Reshape(probs2, {count * n, 1, 2}), v_pairs),
      {count, n, d});

  // Reassemble the cross-attention output in the full path's row order
  // (user, candidate, history...), pool, and refine.
  Variable out_user_tiled = ag::Reshape(
      ag::ExpandRows(ag::Reshape(ctx.out_user, {1, d}), count),
      {count, 1, d});
  Variable cross_rows =
      ag::ConcatAxis1(ag::ConcatAxis1(out_user_tiled, out_cand), out_dyn);
  Variable pooled_cross =
      ag::MeanAxis1(cross_rows, static_cast<float>(2 + n));
  Variable h_cross =
      view.ffn->Forward(pooled_cross, cfg.keep_prob, false, nullptr);

  // Aggregation and the linear head, in the full path's operation order.
  Variable h_dyn_tiled = ag::Reshape(
      ag::ExpandRows(ag::Reshape(ctx.h_dyn, {1, d}), count), {count, d});
  Variable h_agg = ag::ConcatLastDim({h_stat, h_dyn_tiled, h_cross});
  Variable f = ag::MatMul(h_agg, view.p);
  Variable ws = ag::EmbeddingSumGather(view.w_static, static_ids, count, 2);
  Variable wd_one =
      ag::EmbeddingSumGather(view.w_dynamic, ctx.dynamic_ids, 1, n);
  Variable wd = ag::Reshape(
      ag::ExpandRows(ag::Reshape(wd_one, {1, 1}), count), {count, 1});
  Variable out = ag::AddBias(ag::Add(f, ag::Add(ws, wd)), view.w0);

  const float* src = out.value().data();
  for (size_t i = 0; i < count; ++i) out_scores[i] = src[i];
}

std::vector<ScoredItem> Predictor::TopK(const data::SequenceExample& ex,
                                        const std::vector<int32_t>& candidates,
                                        size_t k) const {
  k = std::min(k, candidates.size());
  if (k == 0) return {};
  LocalShardBackend backend(this);
  std::vector<std::vector<RankEntry>> runs;
  const Status st =
      backend.ScoreTopK({ScoreJob{&ex, &candidates, 0, candidates.size(), k}},
                        &runs);
  SEQFM_CHECK(st.ok()) << "Predictor::TopK: local backend failed: "
                       << st.ToString();
  return MergeSortedRuns(runs, k);
}

std::vector<ScoredItem> Predictor::TopKAll(const data::SequenceExample& ex,
                                           size_t k) const {
  return TopK(ex, full_catalog_, k);
}

}  // namespace serve
}  // namespace seqfm
