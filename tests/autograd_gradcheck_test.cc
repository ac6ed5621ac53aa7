// Property suite: every autograd op's analytic gradient is verified against
// central finite differences via autograd::GradCheck. These tests are the
// foundation the model correctness rests on — a silent gradient bug here
// would corrupt every experiment downstream.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "nn/masks.h"
#include "tensor/init.h"
#include "util/rng.h"

namespace seqfm {
namespace autograd {
namespace {

using tensor::Tensor;

Variable RandomLeaf(std::vector<size_t> shape, Rng* rng, float stddev = 0.8f) {
  Tensor t(std::move(shape));
  tensor::FillNormal(&t, rng, stddev);
  return Variable::Leaf(std::move(t), /*requires_grad=*/true);
}

void ExpectGradCheckPasses(
    const std::function<Variable(const std::vector<Variable>&)>& fn,
    std::vector<Variable> leaves) {
  auto report = GradCheck(fn, std::move(leaves));
  EXPECT_TRUE(report.passed)
      << "max_abs_error=" << report.max_abs_error
      << " max_rel_error=" << report.max_rel_error
      << " worst input " << report.worst_input << " elem "
      << report.worst_element;
}

// ---------------------------------------------------------------------------
// Elementwise
// ---------------------------------------------------------------------------

TEST(GradCheckElementwise, Add) {
  Rng rng(101);
  ExpectGradCheckPasses(
      [](const std::vector<Variable>& v) { return SumAll(Add(v[0], v[1])); },
      {RandomLeaf({3, 4}, &rng), RandomLeaf({3, 4}, &rng)});
}

TEST(GradCheckElementwise, SubAndMulComposition) {
  Rng rng(102);
  ExpectGradCheckPasses(
      [](const std::vector<Variable>& v) {
        return SumAll(Mul(Sub(v[0], v[1]), v[0]));
      },
      {RandomLeaf({2, 5}, &rng), RandomLeaf({2, 5}, &rng)});
}

TEST(GradCheckElementwise, Scale) {
  Rng rng(103);
  ExpectGradCheckPasses(
      [](const std::vector<Variable>& v) { return SumAll(Scale(v[0], -2.5f)); },
      {RandomLeaf({6}, &rng)});
}

TEST(GradCheckElementwise, AddBiasRank2) {
  Rng rng(104);
  ExpectGradCheckPasses(
      [](const std::vector<Variable>& v) { return SumAll(Mul(AddBias(v[0], v[1]), v[0])); },
      {RandomLeaf({3, 4}, &rng), RandomLeaf({4}, &rng)});
}

TEST(GradCheckElementwise, AddBiasRank3) {
  Rng rng(105);
  ExpectGradCheckPasses(
      [](const std::vector<Variable>& v) {
        return SumAll(Mul(AddBias(v[0], v[1]), AddBias(v[0], v[1])));
      },
      {RandomLeaf({2, 3, 4}, &rng), RandomLeaf({4}, &rng)});
}

TEST(GradCheckElementwise, AddBroadcastBatch) {
  Rng rng(106);
  ExpectGradCheckPasses(
      [](const std::vector<Variable>& v) {
        auto y = AddBroadcastBatch(v[0], v[1]);
        return SumAll(Mul(y, y));
      },
      {RandomLeaf({2, 3, 2}, &rng), RandomLeaf({3, 2}, &rng)});
}

TEST(GradCheckActivations, Sigmoid) {
  Rng rng(107);
  ExpectGradCheckPasses(
      [](const std::vector<Variable>& v) { return SumAll(Sigmoid(v[0])); },
      {RandomLeaf({4, 3}, &rng)});
}

TEST(GradCheckActivations, Tanh) {
  Rng rng(108);
  ExpectGradCheckPasses(
      [](const std::vector<Variable>& v) {
        return SumAll(Mul(Tanh(v[0]), v[0]));
      },
      {RandomLeaf({4, 3}, &rng)});
}

TEST(GradCheckActivations, ReluAwayFromKink) {
  Rng rng(109);
  // Keep inputs away from 0 so finite differences are valid.
  Tensor t({10});
  for (size_t i = 0; i < 10; ++i) {
    t.at(i) = (i % 2 == 0 ? 1.0f : -1.0f) * (0.5f + static_cast<float>(i));
  }
  ExpectGradCheckPasses(
      [](const std::vector<Variable>& v) { return SumAll(Relu(v[0])); },
      {Variable::Leaf(std::move(t), true)});
  (void)rng;
}

// ---------------------------------------------------------------------------
// Matmul family
// ---------------------------------------------------------------------------

TEST(GradCheckMatMul, Rank2) {
  Rng rng(110);
  ExpectGradCheckPasses(
      [](const std::vector<Variable>& v) {
        auto y = MatMul(v[0], v[1]);
        return SumAll(Mul(y, y));
      },
      {RandomLeaf({3, 4}, &rng), RandomLeaf({4, 2}, &rng)});
}

TEST(GradCheckMatMul, BmmShared) {
  Rng rng(111);
  ExpectGradCheckPasses(
      [](const std::vector<Variable>& v) {
        auto y = BmmShared(v[0], v[1]);
        return SumAll(Mul(y, y));
      },
      {RandomLeaf({2, 3, 4}, &rng), RandomLeaf({4, 3}, &rng)});
}

class BmmTransposeGradCheck
    : public ::testing::TestWithParam<std::pair<bool, bool>> {};

TEST_P(BmmTransposeGradCheck, AllTransposeCombos) {
  const auto [ta, tb] = GetParam();
  Rng rng(112);
  // Shapes so that A' is [3,4] and B' is [4,2] per batch of 2.
  std::vector<size_t> a_shape = ta ? std::vector<size_t>{2, 4, 3}
                                   : std::vector<size_t>{2, 3, 4};
  std::vector<size_t> b_shape = tb ? std::vector<size_t>{2, 2, 4}
                                   : std::vector<size_t>{2, 4, 2};
  ExpectGradCheckPasses(
      [ta, tb](const std::vector<Variable>& v) {
        auto y = Bmm(v[0], v[1], ta, tb);
        return SumAll(Mul(y, y));
      },
      {RandomLeaf(a_shape, &rng), RandomLeaf(b_shape, &rng)});
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, BmmTransposeGradCheck,
    ::testing::Values(std::pair{false, false}, std::pair{false, true},
                      std::pair{true, false}, std::pair{true, true}));

TEST(GradCheckMatMul, BmmLeftShared) {
  Rng rng(113);
  ExpectGradCheckPasses(
      [](const std::vector<Variable>& v) {
        auto y = BmmLeftShared(v[0], v[1]);
        return SumAll(Mul(y, y));
      },
      {RandomLeaf({3, 4}, &rng), RandomLeaf({2, 4, 3}, &rng)});
}

TEST(GradCheckMatMul, RowDot) {
  Rng rng(114);
  ExpectGradCheckPasses(
      [](const std::vector<Variable>& v) {
        auto y = RowDot(v[0], v[1]);
        return SumAll(Mul(y, y));
      },
      {RandomLeaf({4, 3}, &rng), RandomLeaf({4, 3}, &rng)});
}

// ---------------------------------------------------------------------------
// Softmax / LayerNorm
// ---------------------------------------------------------------------------

TEST(GradCheckSoftmax, Unmasked) {
  Rng rng(115);
  ExpectGradCheckPasses(
      [](const std::vector<Variable>& v) {
        auto p = MaskedSoftmax(v[0], Variable());
        return SumAll(Mul(p, v[0]));
      },
      {RandomLeaf({3, 5}, &rng)});
}

TEST(GradCheckSoftmax, CausalMaskedRank3) {
  Rng rng(116);
  Variable mask = nn::MakeCausalMask(4);
  ExpectGradCheckPasses(
      [mask](const std::vector<Variable>& v) {
        auto p = MaskedSoftmax(v[0], mask);
        return SumAll(Mul(p, v[0]));
      },
      {RandomLeaf({2, 4, 4}, &rng)});
}

TEST(GradCheckSoftmax, CrossMasked) {
  Rng rng(117);
  Variable mask = nn::MakeCrossMask(2, 3);
  ExpectGradCheckPasses(
      [mask](const std::vector<Variable>& v) {
        auto p = MaskedSoftmax(v[0], mask);
        return SumAll(Mul(p, v[0]));
      },
      {RandomLeaf({2, 5, 5}, &rng)});
}

TEST(GradCheckLayerNorm, AllThreeInputs) {
  Rng rng(118);
  ExpectGradCheckPasses(
      [](const std::vector<Variable>& v) {
        auto y = LayerNorm(v[0], v[1], v[2]);
        return SumAll(Mul(y, y));
      },
      {RandomLeaf({3, 6}, &rng, 1.5f), RandomLeaf({6}, &rng),
       RandomLeaf({6}, &rng)});
}

TEST(GradCheckLayerNorm, Rank3Input) {
  Rng rng(119);
  ExpectGradCheckPasses(
      [](const std::vector<Variable>& v) {
        auto y = LayerNorm(v[0], v[1], v[2]);
        return SumAll(Mul(y, y));
      },
      {RandomLeaf({2, 3, 4}, &rng, 1.5f), RandomLeaf({4}, &rng),
       RandomLeaf({4}, &rng)});
}

// ---------------------------------------------------------------------------
// Structural
// ---------------------------------------------------------------------------

TEST(GradCheckStructural, ConcatLastDim) {
  Rng rng(120);
  ExpectGradCheckPasses(
      [](const std::vector<Variable>& v) {
        auto y = ConcatLastDim({v[0], v[1], v[2]});
        return SumAll(Mul(y, y));
      },
      {RandomLeaf({2, 3}, &rng), RandomLeaf({2, 1}, &rng),
       RandomLeaf({2, 4}, &rng)});
}

TEST(GradCheckStructural, ConcatAxis1) {
  Rng rng(121);
  ExpectGradCheckPasses(
      [](const std::vector<Variable>& v) {
        auto y = ConcatAxis1(v[0], v[1]);
        return SumAll(Mul(y, y));
      },
      {RandomLeaf({2, 2, 3}, &rng), RandomLeaf({2, 4, 3}, &rng)});
}

TEST(GradCheckStructural, MeanAxis1WithDivisor) {
  Rng rng(122);
  ExpectGradCheckPasses(
      [](const std::vector<Variable>& v) {
        auto y = MeanAxis1(v[0], 7.0f);
        return SumAll(Mul(y, y));
      },
      {RandomLeaf({2, 5, 3}, &rng)});
}

TEST(GradCheckStructural, SliceRow) {
  Rng rng(123);
  ExpectGradCheckPasses(
      [](const std::vector<Variable>& v) {
        auto y = SliceRow(v[0], 2);
        return SumAll(Mul(y, y));
      },
      {RandomLeaf({3, 4, 2}, &rng)});
}

TEST(GradCheckStructural, SumLastDimKeepRank2AndRank3) {
  Rng rng(124);
  ExpectGradCheckPasses(
      [](const std::vector<Variable>& v) {
        auto a = SumLastDimKeep(v[0]);
        return SumAll(Mul(a, a));
      },
      {RandomLeaf({3, 5}, &rng)});
  ExpectGradCheckPasses(
      [](const std::vector<Variable>& v) {
        auto a = SumLastDimKeep(v[0]);
        return SumAll(Mul(a, a));
      },
      {RandomLeaf({2, 3, 4}, &rng)});
}

TEST(GradCheckStructural, PairwiseProductUpper) {
  Rng rng(125);
  ExpectGradCheckPasses(
      [](const std::vector<Variable>& v) {
        auto y = PairwiseProductUpper(v[0]);
        return SumAll(Mul(y, y));
      },
      {RandomLeaf({2, 4, 3}, &rng)});
}

TEST(GradCheckStructural, PairwiseProductCross) {
  Rng rng(126);
  ExpectGradCheckPasses(
      [](const std::vector<Variable>& v) {
        auto y = PairwiseProductCross(v[0], v[1]);
        return SumAll(Mul(y, y));
      },
      {RandomLeaf({2, 3, 2}, &rng), RandomLeaf({2, 4, 2}, &rng)});
}

TEST(GradCheckStructural, ReshapeAndExpandRows) {
  Rng rng(127);
  ExpectGradCheckPasses(
      [](const std::vector<Variable>& v) {
        auto y = Reshape(v[0], {6, 2});
        return SumAll(Mul(y, y));
      },
      {RandomLeaf({3, 4}, &rng)});
  ExpectGradCheckPasses(
      [](const std::vector<Variable>& v) {
        auto y = ExpandRows(v[0], 4);
        return SumAll(Mul(y, y));
      },
      {RandomLeaf({2, 3}, &rng)});
}

// ---------------------------------------------------------------------------
// Embedding & losses
// ---------------------------------------------------------------------------

TEST(GradCheckEmbedding, GatherWithPadding) {
  Rng rng(128);
  std::vector<int32_t> idx = {0, 2, -1, 1, 1, -1};
  ExpectGradCheckPasses(
      [idx](const std::vector<Variable>& v) {
        auto e = EmbeddingGather(v[0], idx, 2, 3);
        return SumAll(Mul(e, e));
      },
      {RandomLeaf({4, 3}, &rng)});
}

TEST(GradCheckEmbedding, SumGather) {
  Rng rng(129);
  std::vector<int32_t> idx = {0, 3, -1, 2};
  ExpectGradCheckPasses(
      [idx](const std::vector<Variable>& v) {
        auto s = EmbeddingSumGather(v[0], idx, 2, 2);
        return SumAll(Mul(s, s));
      },
      {RandomLeaf({5, 1}, &rng)});
}

TEST(GradCheckLoss, Bpr) {
  Rng rng(130);
  ExpectGradCheckPasses(
      [](const std::vector<Variable>& v) { return BprLoss(v[0], v[1]); },
      {RandomLeaf({4, 1}, &rng), RandomLeaf({4, 1}, &rng)});
}

TEST(GradCheckLoss, BceWithLogits) {
  Rng rng(131);
  const std::vector<float> labels = {1.0f, 0.0f, 1.0f};
  ExpectGradCheckPasses(
      [labels](const std::vector<Variable>& v) {
        return BceWithLogitsLoss(v[0], labels);
      },
      {RandomLeaf({3, 1}, &rng)});
}

TEST(GradCheckLoss, Mse) {
  Rng rng(132);
  const std::vector<float> targets = {0.5f, -1.0f, 2.0f};
  ExpectGradCheckPasses(
      [targets](const std::vector<Variable>& v) {
        return MseLoss(v[0], targets);
      },
      {RandomLeaf({3, 1}, &rng)});
}

// ---------------------------------------------------------------------------
// Deep composition resembling one SeqFM view
// ---------------------------------------------------------------------------

TEST(GradCheckComposition, AttentionLikeStack) {
  Rng rng(133);
  Variable mask = nn::MakeCausalMask(3);
  ExpectGradCheckPasses(
      [mask](const std::vector<Variable>& v) {
        // E [2,3,4]; Wq, Wk, Wv [4,4]; gamma/beta [4].
        auto q = BmmShared(v[0], v[1]);
        auto k = BmmShared(v[0], v[2]);
        auto val = BmmShared(v[0], v[3]);
        auto scores = Scale(Bmm(q, k, false, true), 0.5f);
        auto probs = MaskedSoftmax(scores, mask);
        auto h = Bmm(probs, val);
        auto pooled = MeanAxis1(h, 3.0f);
        auto normed = LayerNorm(pooled, v[4], v[5]);
        return SumAll(Mul(normed, pooled));
      },
      {RandomLeaf({2, 3, 4}, &rng), RandomLeaf({4, 4}, &rng),
       RandomLeaf({4, 4}, &rng), RandomLeaf({4, 4}, &rng),
       RandomLeaf({4}, &rng), RandomLeaf({4}, &rng)});
}

// ---------------------------------------------------------------------------
// Inference mode must not leak into training
// ---------------------------------------------------------------------------

// Runs a taped forward+backward on an attention-like stack; optionally runs a
// tape-free forward of the same stack between graph construction and the
// backward pass, and between two backward passes. Gradients of every leaf
// must be bit-for-bit identical whether or not inference-mode forwards are
// interleaved — the no-grad guard may not perturb tape state.
TEST(NoGradInterleaving, GradientsUnchangedByInferenceForwards) {
  auto build_leaves = [] {
    Rng rng(177);  // fixed seed: both runs see identical parameters
    std::vector<Variable> v;
    v.push_back(RandomLeaf({2, 3, 4}, &rng));
    v.push_back(RandomLeaf({4, 4}, &rng));
    v.push_back(RandomLeaf({4, 4}, &rng));
    return v;
  };
  auto forward = [](const std::vector<Variable>& v) {
    auto q = BmmShared(v[0], v[1]);
    auto k = BmmShared(v[0], v[2]);
    auto scores = Scale(Bmm(q, k, false, true), 0.5f);
    auto probs = MaskedSoftmax(scores, Variable());
    return SumAll(Bmm(probs, v[0]));
  };

  auto run = [&](bool interleave) {
    std::vector<Variable> v = build_leaves();
    Variable loss = forward(v);
    if (interleave) {
      NoGradGuard guard;
      (void)forward(v);  // inference forward between tape build and backward
    }
    Backward(loss);
    if (interleave) {
      NoGradGuard guard;
      (void)forward(v);
    }
    // Second accumulation pass on a fresh graph (optimizer-style reuse).
    Variable loss2 = forward(v);
    Backward(loss2);
    std::vector<tensor::Tensor> grads;
    for (auto& leaf : v) grads.push_back(leaf.grad());
    return grads;
  };

  const auto clean = run(/*interleave=*/false);
  const auto interleaved = run(/*interleave=*/true);
  ASSERT_EQ(clean.size(), interleaved.size());
  for (size_t i = 0; i < clean.size(); ++i) {
    ASSERT_EQ(clean[i].size(), interleaved[i].size());
    EXPECT_EQ(std::memcmp(clean[i].data(), interleaved[i].data(),
                          clean[i].size() * sizeof(float)),
              0)
        << "leaf " << i;
  }
  EXPECT_TRUE(GradMode()) << "guard must restore grad mode";
}

}  // namespace
}  // namespace autograd
}  // namespace seqfm
