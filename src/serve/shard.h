#ifndef SEQFM_SERVE_SHARD_H_
#define SEQFM_SERVE_SHARD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "serve/predictor.h"

namespace seqfm {
namespace serve {

/// One scored candidate inside the ranking machinery: the score, the
/// candidate id, and the candidate's position in the original candidates
/// vector (which makes the order below strictly total even with duplicate
/// ids).
struct RankEntry {
  float score = 0.0f;
  int32_t item = 0;
  size_t pos = 0;
};

/// The serving-wide ranking order: score descending, NaN scores last, ties
/// by candidate id ascending, duplicate ids by original position. Every
/// ranked result in src/serve/ — the per-job top-K of LocalShardBackend and
/// the MergeSortedRuns reduction over jobs or replicas — sorts by this one
/// comparator; because it is a strict total order over (score, id, pos),
/// the global top-K is a unique set and partitioned rankings are
/// bit-identical to unpartitioned ones for any partition of the slate.
bool RankBefore(const RankEntry& a, const RankEntry& b);

/// The num_shards + 1 boundaries of the contiguous partition of [0, total)
/// into near-equal shards: shard s covers [bounds[s], bounds[s + 1]).
/// Shards differ in size by at most one and later shards are empty when
/// num_shards exceeds total. The partition depends on (total, num_shards)
/// only, so two replicas configured alike agree on every boundary.
/// num_shards must be >= 1 (check-fails otherwise).
std::vector<size_t> ShardBounds(size_t total, size_t num_shards);

/// K-way merges already-sorted (best-first, RankBefore) RankEntry runs into
/// the global top-k. This is the reduction every ranking caller shares:
/// Predictor::TopK and BatchServer waves feed it their LocalShardBackend
/// runs, and the distributed serve::Coordinator feeds it per-replica runs
/// off the wire — same comparator, same cursor merge, so a request's
/// ranking is identical no matter how its candidate space was partitioned
/// or transported. Empty runs are permitted; behavior is unspecified if a
/// run is not RankBefore-sorted.
std::vector<ScoredItem> MergeSortedRuns(
    const std::vector<std::vector<RankEntry>>& runs, size_t k);

}  // namespace serve
}  // namespace seqfm

#endif  // SEQFM_SERVE_SHARD_H_
