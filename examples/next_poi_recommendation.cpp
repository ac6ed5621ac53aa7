// Next-POI recommendation (the paper's ranking scenario, Sec. IV-A).
//
// Trains SeqFM on a Gowalla-like check-in log, then prints personalised
// top-5 POI recommendations for a few users together with their recent
// check-in history, and contrasts SeqFM's ranking quality against the plain
// FM trained on the same data.
//
// Build & run:  ./build/examples/next_poi_recommendation [--scale=0.3]
#include <algorithm>
#include <cstdio>
#include <future>
#include <vector>

#include "baselines/registry.h"
#include "core/seqfm.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "serve/checkpoint.h"
#include "serve/predictor.h"
#include "serve/server.h"
#include "util/flags.h"
#include "util/stopwatch.h"

using namespace seqfm;

namespace {

void TrainRanking(core::Model* model, const data::BatchBuilder& builder,
                  const data::TemporalDataset& dataset, size_t epochs) {
  core::TrainConfig cfg;
  cfg.task = core::Task::kRanking;
  cfg.epochs = epochs;
  cfg.batch_size = 128;
  cfg.learning_rate = 1e-2f;
  cfg.num_negatives = 2;
  core::Trainer trainer(model, &builder, &dataset, cfg);
  auto result = trainer.Train();
  std::printf("  %-8s trained: %.1fs, final loss %.4f\n",
              model->name().c_str(), result.total_seconds, result.final_loss);
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  if (auto st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  const double scale = flags.GetDouble("scale", 0.3);
  const size_t epochs = static_cast<size_t>(flags.GetInt("epochs", 15));

  auto config = data::SyntheticDatasetGenerator::Preset("gowalla", scale);
  auto log = data::SyntheticDatasetGenerator(*config).Generate();
  auto dataset = data::TemporalDataset::FromLog(*log);
  data::FeatureSpace space(log->num_users(), log->num_objects());
  data::BatchBuilder builder(space, 20);
  std::printf("Gowalla-like check-in log: %zu users, %zu POIs, %zu check-ins\n",
              log->num_users(), log->num_objects(), log->num_interactions());

  core::SeqFmConfig model_config;
  model_config.embedding_dim = 16;
  model_config.max_seq_len = 20;
  model_config.keep_prob = 0.9f;
  core::SeqFm seqfm(space, model_config);
  TrainRanking(&seqfm, builder, *dataset, epochs);

  baselines::BaselineConfig fm_config;
  fm_config.embedding_dim = 16;
  fm_config.max_seq_len = 20;
  auto fm = baselines::CreateBaseline("FM", space, fm_config).ValueOrDie();
  TrainRanking(fm.get(), builder, *dataset, epochs);

  // Head-to-head leave-one-out evaluation on identical candidate sets.
  eval::RankingEvaluator evaluator(&*dataset, &builder, 200, 11);
  auto m_seqfm = evaluator.Evaluate(&seqfm, {5, 10});
  auto m_fm = evaluator.Evaluate(fm.get(), {5, 10});
  std::printf("\nleave-one-out ranking:  SeqFM HR@10=%.3f NDCG@10=%.3f   "
              "FM HR@10=%.3f NDCG@10=%.3f\n",
              m_seqfm.hr[10], m_seqfm.ndcg[10], m_fm.hr[10], m_fm.ndcg[10]);

  // Production-style serving: persist the trained model, restore it into a
  // fresh instance, and answer top-5 requests through serve::Predictor —
  // tape-free forwards, with SeqFM's factored catalog program active.
  const std::string ckpt = "/tmp/next_poi_seqfm.ckpt";
  if (auto st = serve::Checkpoint::Save(seqfm, ckpt); !st.ok()) {
    std::fprintf(stderr, "checkpoint save failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  core::SeqFm served(space, model_config);
  serve::PredictorOptions serve_opts;
  serve_opts.context_cache_bytes = 16 << 20;  // memoize (user, history) work
  auto predictor =
      serve::Predictor::FromCheckpoint(&served, &builder, ckpt, serve_opts);
  if (!predictor.ok()) {
    std::fprintf(stderr, "%s\n", predictor.status().ToString().c_str());
    return 1;
  }
  std::printf("\ncheckpoint round trip: %s (%zu parameters), fast path %s\n",
              ckpt.c_str(), served.NumParameters(),
              (*predictor)->fast_path_active() ? "active" : "inactive");

  // Requests go through serve::BatchServer: concurrent submissions fuse into
  // multi-user scoring waves on the thread pool, and each user's
  // (user, history) context is memoized by the Predictor's ContextCache —
  // the repeated request for the first user below is served from the cache.
  // Each request keeps a bounded top-K while its candidates are scored in
  // chunks, so a wave holds O(k) entries per request, never one score per
  // candidate.
  std::printf("top-5 next-POI recommendations (served from checkpoint):\n");
  Stopwatch serve_timer;
  size_t scored = 0;
  const size_t show_users = std::min<size_t>(3, dataset->test().size());
  serve::BatchServer server(predictor->get());
  auto candidates_for = [&](const data::SequenceExample& ex) {
    std::vector<int32_t> candidates;
    for (size_t o = 0; o < log->num_objects(); ++o) {
      if (!dataset->Interacted(ex.user, static_cast<int32_t>(o))) {
        candidates.push_back(static_cast<int32_t>(o));
      }
    }
    candidates.push_back(ex.target);  // the ground truth next POI
    return candidates;
  };
  std::vector<std::future<std::vector<serve::ScoredItem>>> futures;
  for (size_t i = 0; i < show_users; ++i) {
    const auto& ex = dataset->test()[i];
    auto candidates = candidates_for(ex);
    scored += candidates.size();
    futures.push_back(server.Submit(ex, std::move(candidates), 5));
  }
  for (size_t i = 0; i < show_users; ++i) {
    const auto& ex = dataset->test()[i];
    const auto top = futures[i].get();
    std::printf("  user %d, recent POIs:", ex.user);
    const size_t tail = std::min<size_t>(5, ex.history.size());
    for (size_t j = ex.history.size() - tail; j < ex.history.size(); ++j) {
      std::printf(" %d", ex.history[j]);
    }
    std::printf("  | actual next: %d\n    recommended:", ex.target);
    for (const auto& item : top) {
      std::printf(" %d(%.2f)%s", item.item, item.score,
                  item.item == ex.target ? "*" : "");
    }
    std::printf("   (* = ground truth)\n");
  }
  // A second request for the first user arrives later (a fresh wave): its
  // (user, history) context is served from the ContextCache, not recomputed.
  {
    const auto& ex = dataset->test()[0];
    auto candidates = candidates_for(ex);
    scored += candidates.size();
    (void)server.Submit(ex, std::move(candidates), 5).get();
  }
  const auto cache = (*predictor)->context_cache()->stats();
  const auto waves = server.stats();
  std::printf("served %zu candidate scores in %.1f ms | %llu waves, "
              "context cache: %llu hits / %llu misses\n",
              scored, serve_timer.ElapsedSeconds() * 1e3,
              static_cast<unsigned long long>(waves.waves),
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses));

  // The same ranking path works without a server: Predictor::TopKAll ranks
  // the whole POI catalog through the same bounded top-K and merge the
  // waves use, bit-identical to the server's answer for the same request.
  const auto& first = dataset->test()[0];
  const auto direct = (*predictor)->TopKAll(first, 5);
  std::printf("whole-catalog top-5 for user %d via Predictor::TopKAll:",
              first.user);
  for (const auto& item : direct) {
    std::printf(" %d(%.2f)", item.item, item.score);
  }
  std::printf("\n");
  return 0;
}
