// Lockdown suite for the one in-process ranking path — ScoreJob ->
// LocalShardBackend -> MergeSortedRuns (src/serve/backend.{h,cc},
// src/serve/shard.{h,cc}) — and the serving-determinism total order it
// ranks by. Every expectation is checked against an independent oracle
// (tests/ranking_oracle.h: taped Model::Score or a given score table,
// fully sorted by RankBefore), never against the path itself:
//   - RankBefore: score desc, NaN last, ties by candidate id then position;
//   - ShardBounds partition math: uneven boundaries, shards > catalog;
//   - MergeSortedRuns across partitions, k larger than what was retained;
//   - a score-table model drives the path with exact ties, NaN scores and
//     duplicate ids: ties order by id not position, NaN last, duplicate ids
//     keep their slots, and bounded per-job runs retain the same set for
//     every chunk size, thread count and slate order;
//   - partition invariance: a slate split into {1, 2, 3, 8} LocalShardBackend
//     jobs over ShardBounds and merged by MergeSortedRuns ranks exactly as
//     the oracle, for k <, ==, > catalog, at micro_batch 2, on compiled and
//     generic models, at 1 and 2 threads.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "core/model_interface.h"
#include "core/seqfm.h"
#include "data/dataset.h"
#include "serve/backend.h"
#include "serve/predictor.h"
#include "serve/shard.h"
#include "tests/ranking_oracle.h"
#include "util/thread_pool.h"

namespace seqfm {
namespace {

using testing_util::ExpectSameRanking;
using testing_util::ReferenceTopK;

constexpr size_t kSeqLen = 6;

data::FeatureSpace SmallSpace() { return data::FeatureSpace(5, 9); }

core::SeqFmConfig SmallSeqFmConfig(uint64_t seed = 321) {
  core::SeqFmConfig cfg;
  cfg.embedding_dim = 8;
  cfg.max_seq_len = kSeqLen;
  cfg.ffn_layers = 2;
  cfg.keep_prob = 1.0f;
  cfg.seed = seed;
  return cfg;
}

std::vector<data::SequenceExample> TestExamples() {
  std::vector<data::SequenceExample> examples(4);
  examples[0] = {/*user=*/0, /*target=*/4, /*rating=*/1.0f,
                 {1, 2, 3, 0, 5, 6, 7, 8}};  // longer than kSeqLen
  examples[1] = {2, 6, 0.5f, {5}};           // single-item history
  examples[2] = {3, 0, 2.0f, {}};            // cold start
  examples[3] = {4, 8, 4.0f, {8, 7, 6}};
  return examples;
}

std::vector<int32_t> FullCatalog(const data::FeatureSpace& space) {
  std::vector<int32_t> catalog(space.num_objects());
  for (size_t i = 0; i < catalog.size(); ++i) {
    catalog[i] = static_cast<int32_t>(i);
  }
  return catalog;
}

/// Makes items \p a and \p b score bit-identically for every request by
/// copying a's static-embedding row and w_static row onto b's. The model's
/// only candidate-dependent inputs are those two rows, so the forced tie
/// survives every serving path — the duplicate-score workload the
/// deterministic tie-break exists for.
void ForceScoreTie(core::SeqFm* model, const data::FeatureSpace& space,
                   int32_t a, int32_t b) {
  const auto view = model->serving_view();
  const size_t dim = model->config().embedding_dim;
  autograd::Variable table = view.static_embedding->table();  // shares node
  float* rows = table.mutable_value().data();
  const size_t ra = static_cast<size_t>(space.CandidateIndex(a));
  const size_t rb = static_cast<size_t>(space.CandidateIndex(b));
  std::memcpy(rows + rb * dim, rows + ra * dim, dim * sizeof(float));
  autograd::Variable w_static = view.w_static;
  w_static.mutable_value().data()[rb] = w_static.value().data()[ra];
}

/// A model whose score is a fixed per-item table, independent of user and
/// history — exact ties and NaN scores on demand. Not traceable, so a
/// Predictor serves it through the generic range scorer.
class ScoreTableModel : public core::Model {
 public:
  ScoreTableModel(const data::FeatureSpace& space, std::vector<float> table)
      : space_(space), table_(std::move(table)) {}

  autograd::Variable Score(const data::Batch& batch, bool) override {
    tensor::Tensor out = tensor::Tensor::Zeros({batch.batch_size, 1});
    for (size_t b = 0; b < batch.batch_size; ++b) {
      const int32_t item = batch.static_ids[b * batch.n_static + 1] -
                           space_.CandidateIndex(0);
      out.data()[b] = table_[static_cast<size_t>(item)];
    }
    return autograd::Variable::Constant(std::move(out));
  }
  std::vector<autograd::Variable> TrainableParameters() override {
    return {};
  }
  std::string name() const override { return "ScoreTable"; }

  const std::vector<float>& table() const { return table_; }

 private:
  data::FeatureSpace space_;
  std::vector<float> table_;
};

/// The table model's scores for \p candidates: the oracle's input.
std::vector<float> TableScores(const ScoreTableModel& model,
                               const std::vector<int32_t>& candidates) {
  std::vector<float> scores;
  for (int32_t c : candidates) {
    scores.push_back(model.table()[static_cast<size_t>(c)]);
  }
  return scores;
}

serve::PredictorOptions TableOptions(size_t micro_batch) {
  serve::PredictorOptions opts;
  opts.micro_batch = micro_batch;
  opts.use_compiled_program = false;
  return opts;
}

/// Ranks \p candidates as \p shards LocalShardBackend jobs over ShardBounds,
/// merged by MergeSortedRuns. Also checks every job's run is bounded by
/// min(k, its range) and sorted best-first.
std::vector<serve::ScoredItem> PartitionedTopK(
    const serve::Predictor& predictor, const data::SequenceExample& ex,
    const std::vector<int32_t>& candidates, size_t shards, size_t k) {
  const std::vector<size_t> bounds =
      serve::ShardBounds(candidates.size(), shards);
  std::vector<serve::ScoreJob> jobs;
  for (size_t s = 0; s < shards; ++s) {
    jobs.push_back({&ex, &candidates, bounds[s], bounds[s + 1], k});
  }
  serve::LocalShardBackend backend(&predictor);
  std::vector<std::vector<serve::RankEntry>> runs;
  EXPECT_TRUE(backend.ScoreTopK(jobs, &runs).ok());
  EXPECT_EQ(runs.size(), shards);
  for (size_t s = 0; s < runs.size(); ++s) {
    EXPECT_EQ(runs[s].size(), std::min(k, bounds[s + 1] - bounds[s]))
        << "shard " << s;
    for (size_t i = 1; i < runs[s].size(); ++i) {
      EXPECT_TRUE(serve::RankBefore(runs[s][i - 1], runs[s][i]))
          << "shard " << s << " run not best-first at " << i;
    }
  }
  return serve::MergeSortedRuns(runs, k);
}

// ---------------------------------------------------------------------------
// RankBefore: the serving-wide total order
// ---------------------------------------------------------------------------

TEST(RankBeforeTest, OrdersByScoreThenIdThenPosition) {
  // Higher score first.
  EXPECT_TRUE(serve::RankBefore({2.0f, 9, 5}, {1.0f, 0, 0}));
  EXPECT_FALSE(serve::RankBefore({1.0f, 0, 0}, {2.0f, 9, 5}));
  // Score tie: lower candidate id first, regardless of position.
  EXPECT_TRUE(serve::RankBefore({1.0f, 3, 7}, {1.0f, 8, 0}));
  EXPECT_FALSE(serve::RankBefore({1.0f, 8, 0}, {1.0f, 3, 7}));
  // Score and id tie (duplicate candidate): earlier position first.
  EXPECT_TRUE(serve::RankBefore({1.0f, 3, 1}, {1.0f, 3, 4}));
  EXPECT_FALSE(serve::RankBefore({1.0f, 3, 4}, {1.0f, 3, 1}));
  // Identical entries are equivalent, not before each other.
  EXPECT_FALSE(serve::RankBefore({1.0f, 3, 4}, {1.0f, 3, 4}));
}

TEST(RankBeforeTest, NanScoresSortLastAmongThemselvesById) {
  const float nan = std::nanf("");
  EXPECT_TRUE(serve::RankBefore({-100.0f, 9, 9}, {nan, 0, 0}));
  EXPECT_FALSE(serve::RankBefore({nan, 0, 0}, {-100.0f, 9, 9}));
  // Two NaNs: id tie-break keeps the order strict and deterministic.
  EXPECT_TRUE(serve::RankBefore({nan, 1, 5}, {nan, 2, 0}));
  EXPECT_FALSE(serve::RankBefore({nan, 2, 0}, {nan, 1, 5}));
}

// ---------------------------------------------------------------------------
// ShardBounds partition math
// ---------------------------------------------------------------------------

TEST(ShardBoundsTest, BoundsCoverContiguouslyWithNearEqualShards) {
  for (size_t total : {0u, 1u, 7u, 9u, 64u}) {
    for (size_t shards : {1u, 2u, 3u, 5u, 8u}) {
      const auto bounds = serve::ShardBounds(total, shards);
      ASSERT_EQ(bounds.size(), shards + 1);
      EXPECT_EQ(bounds.front(), 0u);
      EXPECT_EQ(bounds.back(), total);
      size_t min_size = total, max_size = 0;
      for (size_t s = 0; s < shards; ++s) {
        ASSERT_LE(bounds[s], bounds[s + 1]);  // contiguous, monotone
        const size_t size = bounds[s + 1] - bounds[s];
        min_size = std::min(min_size, size);
        max_size = std::max(max_size, size);
      }
      EXPECT_LE(max_size - min_size, 1u)
          << total << " over " << shards << " shards";
    }
  }
}

TEST(ShardBoundsTest, MoreShardsThanCandidatesLeavesEmptyShards) {
  const auto bounds = serve::ShardBounds(3, 8);
  size_t covered = 0, empty = 0;
  for (size_t s = 0; s < 8; ++s) {
    covered += bounds[s + 1] - bounds[s];
    empty += (bounds[s + 1] == bounds[s]);
  }
  EXPECT_EQ(covered, 3u);
  EXPECT_EQ(empty, 5u);
}

TEST(ShardBoundsDeathTest, ZeroShardsDies) {
  EXPECT_DEATH(serve::ShardBounds(2, 0), "at least one shard");
}

// ---------------------------------------------------------------------------
// MergeSortedRuns
// ---------------------------------------------------------------------------

TEST(MergeSortedRunsTest, MergesDuplicateScoresAcrossPartitionsById) {
  // Run 0 holds ids {1, 5}, run 1 holds {7, 3}, all score 1.0 except a 2.0
  // leader in run 1. Global order: 7 (2.0), then 1, 3, 5 by id.
  const std::vector<std::vector<serve::RankEntry>> runs = {
      {{1.0f, 1, 1}, {1.0f, 5, 0}}, {{2.0f, 7, 3}, {1.0f, 3, 2}}};
  const auto merged = serve::MergeSortedRuns(runs, 3);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].item, 7);
  EXPECT_EQ(merged[1].item, 1);
  EXPECT_EQ(merged[2].item, 3);
}

TEST(MergeSortedRunsTest, KLargerThanRetainedReturnsEverythingRanked) {
  const std::vector<std::vector<serve::RankEntry>> runs = {
      {{3.0f, 0, 0}}, {}, {{4.0f, 1, 1}}};
  const auto merged = serve::MergeSortedRuns(runs, 100);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].item, 1);
  EXPECT_EQ(merged[1].item, 0);
  EXPECT_TRUE(serve::MergeSortedRuns({}, 5).empty());
}

// ---------------------------------------------------------------------------
// Exact ties, NaN and duplicate ids through the ranking path
// ---------------------------------------------------------------------------

TEST(RankingPathTest, DuplicateScoresOrderByCandidateIdNotPosition) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  ScoreTableModel model(space, std::vector<float>(9, 0.25f));
  const auto ex = TestExamples()[0];
  // All scores equal; a position tie-break would return {7, 3, 5, 1}.
  const std::vector<int32_t> candidates = {7, 3, 5, 1};
  for (size_t micro_batch : {1u, 2u, 4u}) {
    serve::Predictor predictor(&model, &builder, TableOptions(micro_batch));
    const auto top = predictor.TopK(ex, candidates, 4);
    ASSERT_EQ(top.size(), 4u);
    EXPECT_EQ(top[0].item, 1);
    EXPECT_EQ(top[1].item, 3);
    EXPECT_EQ(top[2].item, 5);
    EXPECT_EQ(top[3].item, 7);
    for (size_t shards : {2u, 3u}) {
      ExpectSameRanking(PartitionedTopK(predictor, ex, candidates, shards, 4),
                        top, "shards=" + std::to_string(shards));
    }
  }
}

TEST(RankingPathTest, PartialTiesBreakByIdWithinEqualScores) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  std::vector<float> table(9, 0.0f);
  table[4] = table[8] = 1.0f;
  table[2] = table[6] = 2.0f;
  ScoreTableModel model(space, table);
  serve::Predictor predictor(&model, &builder, TableOptions(2));
  const auto top = predictor.TopK(TestExamples()[1], {4, 2, 8, 6}, 4);
  ASSERT_EQ(top.size(), 4u);
  EXPECT_EQ(top[0].item, 2);  // 2.0 tie: id 2 before id 6
  EXPECT_EQ(top[1].item, 6);
  EXPECT_EQ(top[2].item, 4);  // 1.0 tie: id 4 before id 8
  EXPECT_EQ(top[3].item, 8);
}

TEST(RankingPathTest, NanSortsLastAndDuplicateIdsKeepTheirSlots) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  std::vector<float> table(9, -1.0f);
  table[0] = 2.0f;
  table[1] = 2.0f;
  table[2] = std::nanf("");
  table[3] = std::nanf("");
  ScoreTableModel model(space, table);
  const auto ex = TestExamples()[2];
  const std::vector<int32_t> candidates = {3, 0, 1, 2, 0, 5};
  for (size_t micro_batch : {1u, 4u}) {
    serve::Predictor predictor(&model, &builder, TableOptions(micro_batch));
    const auto top = predictor.TopK(ex, candidates, 6);
    ASSERT_EQ(top.size(), 6u);
    EXPECT_EQ(top[0].item, 0);  // both slots of the duplicate id survive
    EXPECT_EQ(top[1].item, 0);
    EXPECT_EQ(top[2].item, 1);  // 2.0 tie: id 1 after id 0
    EXPECT_EQ(top[3].item, 5);
    EXPECT_EQ(top[4].item, 2);  // NaNs last, among themselves by id
    EXPECT_EQ(top[5].item, 3);
    EXPECT_TRUE(std::isnan(top[4].score));
    EXPECT_TRUE(std::isnan(top[5].score));
    ExpectSameRanking(top,
                      ReferenceTopK(candidates,
                                    TableScores(model, candidates), 6),
                      "vs oracle micro_batch=" + std::to_string(micro_batch));
  }
}

TEST(RankingPathTest, BoundedRunsRetainTheSameSetForAnyChunkingOrOrder) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  // Five-way tie at the top: the retained top-3 is decided by id alone.
  ScoreTableModel model(space, {1.0f, 3.0f, 3.0f, 0.5f, 3.0f, 3.0f, 2.0f,
                                3.0f, -4.0f});
  const auto ex = TestExamples()[3];
  const std::vector<int32_t> forward = FullCatalog(space);
  const std::vector<int32_t> backward(forward.rbegin(), forward.rend());
  const auto want = ReferenceTopK(forward, TableScores(model, forward), 3);
  for (size_t threads : {1u, 2u}) {
    util::SetGlobalThreads(threads);
    for (size_t micro_batch : {1u, 2u, 4u, 9u}) {
      serve::Predictor predictor(&model, &builder, TableOptions(micro_batch));
      for (const auto* slate : {&forward, &backward}) {
        const std::string where =
            "threads=" + std::to_string(threads) +
            " micro_batch=" + std::to_string(micro_batch) +
            (slate == &forward ? " forward" : " backward");
        ExpectSameRanking(PartitionedTopK(predictor, ex, *slate, 1, 3), want,
                          where);
      }
      // k == 0 retains nothing at all.
      EXPECT_TRUE(PartitionedTopK(predictor, ex, forward, 2, 0).empty());
    }
  }
  util::SetGlobalThreads(1);
}

// ---------------------------------------------------------------------------
// Partition invariance against the taped oracle
// ---------------------------------------------------------------------------

TEST(RankingPathTest, ShardCountInvariantAndBitIdenticalToTapedOracle) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  core::SeqFm seqfm(space, SmallSeqFmConfig());
  // Duplicate scores across shard boundaries: items (2, 7) land in
  // different shards for every shard count > 1, items (3, 4) are adjacent.
  ForceScoreTie(&seqfm, space, 2, 7);
  ForceScoreTie(&seqfm, space, 3, 4);
  baselines::BaselineConfig cfg;
  cfg.embedding_dim = 8;
  cfg.max_seq_len = kSeqLen;
  cfg.mlp_hidden = 8;
  cfg.keep_prob = 1.0f;
  cfg.seed = 123;
  auto fm = baselines::CreateBaseline("FM", space, cfg).ValueOrDie();

  serve::PredictorOptions opts;
  opts.micro_batch = 2;  // several chunks per shard even on 9 items
  serve::Predictor compiled(&seqfm, &builder, opts);
  ASSERT_TRUE(compiled.compiled_active());
  serve::PredictorOptions generic_opts = opts;
  generic_opts.use_compiled_program = false;
  serve::Predictor generic(fm.get(), &builder, generic_opts);
  ASSERT_FALSE(generic.context_path_active());

  const std::vector<int32_t> catalog = FullCatalog(space);
  for (size_t threads : {1u, 2u}) {
    util::SetGlobalThreads(threads);
    for (const auto& ex : TestExamples()) {
      for (const serve::Predictor* predictor : {&compiled, &generic}) {
        core::Model* model = predictor == &compiled
                                 ? static_cast<core::Model*>(&seqfm)
                                 : fm.get();
        // k spans: partial, whole catalog, and k > catalog (clamped).
        for (size_t k : {1u, 3u, 9u, 20u}) {
          const auto want = ReferenceTopK(model, builder, ex, catalog, k);
          const std::string where = model->name() +
                                    " user=" + std::to_string(ex.user) +
                                    " k=" + std::to_string(k) +
                                    " threads=" + std::to_string(threads);
          ExpectSameRanking(predictor->TopKAll(ex, k), want,
                            where + " TopKAll");
          for (size_t shards : {1u, 2u, 3u, 8u}) {
            ExpectSameRanking(
                PartitionedTopK(*predictor, ex, catalog, shards, k), want,
                where + " shards=" + std::to_string(shards));
          }
        }
      }
    }
  }
  util::SetGlobalThreads(1);
}

TEST(RankingPathTest, CustomSlateWithDuplicateScoresAndIds) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  core::SeqFm model(space, SmallSeqFmConfig());
  ForceScoreTie(&model, space, 1, 6);
  serve::Predictor predictor(&model, &builder, {});
  const auto ex = TestExamples()[3];

  // Ids deliberately out of order and duplicated: the tied pair (1, 6) must
  // come out id-ascending whichever positions (and shards) they occupy.
  const std::vector<int32_t> candidates = {6, 8, 1, 0, 6, 2};
  for (size_t k : {2u, 4u, 6u, 10u}) {
    const auto want = ReferenceTopK(&model, builder, ex, candidates, k);
    ExpectSameRanking(predictor.TopK(ex, candidates, k), want,
                      "TopK k=" + std::to_string(k));
    for (size_t shards : {1u, 2u, 3u, 8u}) {
      ExpectSameRanking(PartitionedTopK(predictor, ex, candidates, shards, k),
                        want,
                        "shards=" + std::to_string(shards) +
                            " k=" + std::to_string(k));
    }
  }
}

TEST(RankingPathTest, MoreShardsThanSlateAndTinySlates) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  core::SeqFm model(space, SmallSeqFmConfig());
  serve::Predictor predictor(&model, &builder, {});
  const auto ex = TestExamples()[0];

  // 3-item slate over 8 shards: most jobs are empty.
  ExpectSameRanking(PartitionedTopK(predictor, ex, {4, 2, 7}, 8, 3),
                    ReferenceTopK(&model, builder, ex, {4, 2, 7}, 3),
                    "3 items, 8 shards");
  // Single item, and k clamped past it.
  ExpectSameRanking(PartitionedTopK(predictor, ex, {5}, 8, 4),
                    ReferenceTopK(&model, builder, ex, {5}, 4),
                    "1 item, 8 shards");
  // Degenerate requests.
  EXPECT_TRUE(PartitionedTopK(predictor, ex, {}, 8, 5).empty());
  EXPECT_TRUE(predictor.TopK(ex, {}, 5).empty());
  EXPECT_TRUE(predictor.TopK(ex, {1, 2}, 0).empty());
  EXPECT_TRUE(predictor.TopKAll(ex, 0).empty());
}

TEST(RankingPathTest, UnevenMicroBatchBoundariesStayBitIdentical) {
  const data::FeatureSpace space = SmallSpace();
  data::BatchBuilder builder(space, kSeqLen);
  core::SeqFm model(space, SmallSeqFmConfig());
  const auto ex = TestExamples()[1];
  const std::vector<int32_t> catalog = FullCatalog(space);
  const auto want = ReferenceTopK(&model, builder, ex, catalog, 9);

  // Chunk sizes that divide 3-item jobs unevenly must not change a single
  // bit of the ranking.
  for (size_t micro_batch : {1u, 2u, 4u, 7u}) {
    serve::PredictorOptions opts;
    opts.micro_batch = micro_batch;
    serve::Predictor predictor(&model, &builder, opts);
    ExpectSameRanking(PartitionedTopK(predictor, ex, catalog, 3, 9), want,
                      "micro_batch=" + std::to_string(micro_batch));
  }
}

TEST(RankingPathDeathTest, NullPredictorDies) {
  EXPECT_DEATH(serve::LocalShardBackend(nullptr), "null predictor");
}

}  // namespace
}  // namespace seqfm
