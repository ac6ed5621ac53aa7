#ifndef SEQFM_NN_MASKS_H_
#define SEQFM_NN_MASKS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "autograd/variable.h"

namespace seqfm {
namespace nn {

/// Additive attention masks (entries are 0 or -infinity) wrapped as constant
/// Variables so they can be fed to autograd::MaskedSoftmax. A [n, n] mask is
/// broadcast over the batch; a [batch*n, n] mask is applied per sample.

/// Causal mask for the dynamic view (Eq. 10): entry (i, j) is 0 when i >= j
/// (feature i may attend to earlier-or-equal positions) and -inf otherwise.
autograd::Variable MakeCausalMask(size_t n);

/// Cross-view mask (Eq. 13) over n_static + n_dynamic stacked features:
/// entry (i, j) is 0 exactly when one of i, j indexes a static feature and
/// the other a dynamic feature; same-category interactions are blocked.
autograd::Variable MakeCrossMask(size_t n_static, size_t n_dynamic);

/// Per-sample mask of shape [batch*n, n] that combines the causal structure
/// (when \p causal) with blocking attention *to* padding key positions
/// (indices[b*n + j] < 0). A row whose every entry would be blocked keeps its
/// diagonal entry open so softmax stays well defined. This powers the
/// optional `mask_padding_keys` extension (see DESIGN.md).
autograd::Variable MakeBatchPaddingMask(const std::vector<int32_t>& indices,
                                        size_t batch, size_t n, bool causal);

/// Per-sample history mask of shape [batch, n]: entry (b, i) is -inf when the
/// history slot is padding (indices[b*n + i] < 0). A sample with an entirely
/// empty history keeps its last slot open so softmax stays well defined
/// (DIN's attention pooling).
autograd::Variable MakeHistoryPaddingMask(const std::vector<int32_t>& indices,
                                          size_t batch, size_t n);

/// Per-sample block builders: one sample's slice of a history-dependent
/// mask, written from that sample's \p ids. The batch builders above (and
/// SeqFM's padding-aware cross mask) loop over them, and compiled serving
/// re-materializes its masks through them (ir::MaterializeMask).
/// [n, n] block of MakeBatchPaddingMask.
void PaddingMaskBlock(const int32_t* ids, size_t n, bool causal, float* dst);
/// [n] row of MakeHistoryPaddingMask.
void HistoryMaskBlock(const int32_t* ids, size_t n, float* dst);
/// [ns+nd, ns+nd] block of the cross-view mask (Eq. 13) that additionally
/// blocks attention to dynamic padding keys (ids[j] < 0, j < nd). A row
/// whose every entry would be blocked keeps its diagonal entry open.
void CrossPaddingMaskBlock(const int32_t* ids, size_t ns, size_t nd,
                           float* dst);

}  // namespace nn
}  // namespace seqfm

#endif  // SEQFM_NN_MASKS_H_
