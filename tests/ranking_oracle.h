// Independent ranking oracle shared by the serving suites. Every ranking
// path in src/serve/ goes through LocalShardBackend -> MergeSortedRuns (or
// the Coordinator's merge over the same runs), so a parity test must not
// compare that path with itself: the oracle here scores with the taped
// Model::Score forward (or takes a given score vector) and ranks with one
// full std::sort under serve::RankBefore — no bounded heaps, no chunking,
// no merges.
#ifndef SEQFM_TESTS_RANKING_ORACLE_H_
#define SEQFM_TESTS_RANKING_ORACLE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "core/model_interface.h"
#include "data/dataset.h"
#include "serve/predictor.h"
#include "serve/shard.h"
#include "util/logging.h"

namespace seqfm {
namespace testing_util {

/// Top-k of \p candidates by \p scores (scores[i] belongs to candidates[i])
/// under serve::RankBefore; k is clamped to candidates.size().
inline std::vector<serve::ScoredItem> ReferenceTopK(
    const std::vector<int32_t>& candidates, const std::vector<float>& scores,
    size_t k) {
  SEQFM_CHECK_EQ(candidates.size(), scores.size());
  std::vector<serve::RankEntry> entries(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    entries[i] = {scores[i], candidates[i], i};
  }
  std::sort(entries.begin(), entries.end(), serve::RankBefore);
  entries.resize(std::min(k, entries.size()));
  std::vector<serve::ScoredItem> top;
  for (const serve::RankEntry& e : entries) top.push_back({e.item, e.score});
  return top;
}

/// The taped forward's scores for \p candidates: one Model::Score batch
/// with the autograd tape recording, the training-path status quo that
/// every serving path must reproduce bit for bit.
inline std::vector<float> TapedScores(core::Model* model,
                                      const data::BatchBuilder& builder,
                                      const data::SequenceExample& ex,
                                      const std::vector<int32_t>& candidates) {
  if (candidates.empty()) return {};
  const std::vector<const data::SequenceExample*> rows(candidates.size(),
                                                       &ex);
  const data::Batch batch = builder.Build(rows, &candidates);
  const autograd::Variable out = model->Score(batch, /*training=*/false);
  SEQFM_CHECK_EQ(out.value().size(), candidates.size());
  const float* data = out.value().data();
  return std::vector<float>(data, data + candidates.size());
}

/// ReferenceTopK over the taped forward's scores.
inline std::vector<serve::ScoredItem> ReferenceTopK(
    core::Model* model, const data::BatchBuilder& builder,
    const data::SequenceExample& ex, const std::vector<int32_t>& candidates,
    size_t k) {
  return ReferenceTopK(candidates,
                       TapedScores(model, builder, ex, candidates), k);
}

/// Same items in the same order with bit-identical scores.
inline void ExpectSameRanking(const std::vector<serve::ScoredItem>& got,
                              const std::vector<serve::ScoredItem>& want,
                              const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].item, want[i].item) << context << " rank " << i;
    EXPECT_EQ(std::memcmp(&got[i].score, &want[i].score, sizeof(float)), 0)
        << context << " rank " << i;
  }
}

}  // namespace testing_util
}  // namespace seqfm

#endif  // SEQFM_TESTS_RANKING_ORACLE_H_
