#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "autograd/ops.h"
#include "nn/layers.h"
#include "nn/masks.h"
#include "nn/module.h"
#include "tensor/init.h"
#include "util/rng.h"

namespace seqfm {
namespace nn {
namespace {

using autograd::Variable;
using tensor::Tensor;

Variable RandomInput(std::vector<size_t> shape, Rng* rng) {
  Tensor t(std::move(shape));
  tensor::FillNormal(&t, rng, 1.0f);
  return Variable::Constant(std::move(t));
}

// ---------------------------------------------------------------------------
// Module
// ---------------------------------------------------------------------------

class TinyModule : public Module {
 public:
  explicit TinyModule(Rng* rng) : child_(2, 3, rng) {
    w_ = RegisterParameter("w", Tensor::Ones({2, 2}));
    RegisterModule("child", &child_);
  }
  Variable w_;
  Linear child_;
};

TEST(ModuleTest, CollectsParametersDepthFirst) {
  Rng rng(40);
  TinyModule m(&rng);
  auto named = m.NamedParameters();
  ASSERT_EQ(named.size(), 3u);  // w + child weight + child bias
  EXPECT_EQ(named[0].first, "w");
  EXPECT_EQ(named[1].first, "child.weight");
  EXPECT_EQ(named[2].first, "child.bias");
  EXPECT_EQ(m.NumParameters(), 4u + 6u + 3u);
}

TEST(ModuleTest, ZeroGradClearsAll) {
  Rng rng(41);
  TinyModule m(&rng);
  Variable loss = autograd::SumAll(autograd::Mul(m.w_, m.w_));
  autograd::Backward(loss);
  EXPECT_NE(m.w_.grad().at(0, 0), 0.0f);
  m.ZeroGrad();
  EXPECT_EQ(m.w_.grad().at(0, 0), 0.0f);
}

TEST(ModuleTest, SaveLoadRoundTrip) {
  Rng rng(42);
  TinyModule a(&rng), b(&rng);
  a.w_.mutable_value().Fill(3.25f);
  const std::string path =
      (std::filesystem::temp_directory_path() / "seqfm_ckpt_test.bin").string();
  ASSERT_TRUE(a.SaveParameters(path).ok());
  ASSERT_TRUE(b.LoadParameters(path).ok());
  EXPECT_EQ(b.w_.value().at(1, 1), 3.25f);
  for (size_t i = 0; i < a.child_.weight().value().size(); ++i) {
    EXPECT_EQ(b.child_.weight().value().data()[i],
              a.child_.weight().value().data()[i]);
  }
  std::remove(path.c_str());
}

TEST(ModuleTest, LoadRejectsMissingFile) {
  Rng rng(43);
  TinyModule m(&rng);
  EXPECT_FALSE(m.LoadParameters("/nonexistent/ckpt.bin").ok());
}

// ---------------------------------------------------------------------------
// Linear / Embedding / LayerNorm
// ---------------------------------------------------------------------------

TEST(LinearTest, Rank2AndRank3AgreeRowWise) {
  Rng rng(44);
  Linear fc(4, 3, &rng);
  Variable x2 = RandomInput({2, 4}, &rng);
  Variable y2 = fc.Forward(x2);
  // Same rows embedded in a rank-3 batch must give identical outputs.
  Tensor x3({1, 2, 4});
  for (size_t i = 0; i < 8; ++i) x3.data()[i] = x2.value().data()[i];
  Variable y3 = fc.Forward(Variable::Constant(std::move(x3)));
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(y3.value().data()[i], y2.value().data()[i], 1e-5f);
  }
}

TEST(LinearTest, NoBiasVariant) {
  Rng rng(45);
  Linear fc(3, 2, &rng, /*use_bias=*/false);
  EXPECT_EQ(fc.Parameters().size(), 1u);
  Variable zero = Variable::Constant(Tensor::Zeros({2, 3}));
  Variable y = fc.Forward(zero);
  for (size_t i = 0; i < y.value().size(); ++i) {
    EXPECT_EQ(y.value().data()[i], 0.0f);
  }
}

TEST(EmbeddingTest, GathersRowsAndZeroPads) {
  Rng rng(46);
  Embedding emb(5, 3, &rng);
  Variable out = emb.Forward({1, -1, 4, 1}, 2, 2);
  for (size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(out.value().at(0, 0, j), emb.table().value().at(1, j));
    EXPECT_EQ(out.value().at(0, 1, j), 0.0f);
    EXPECT_EQ(out.value().at(1, 1, j), emb.table().value().at(1, j));
  }
}

TEST(LayerNormTest, NormalizesLastDim) {
  Rng rng(47);
  LayerNorm ln(8);
  Variable x = RandomInput({4, 8}, &rng);
  Variable y = ln.Forward(x);
  // With gamma=1, beta=0 each row has ~zero mean and ~unit variance.
  for (size_t i = 0; i < 4; ++i) {
    float mean = 0.0f, var = 0.0f;
    for (size_t j = 0; j < 8; ++j) mean += y.value().at(i, j);
    mean /= 8.0f;
    for (size_t j = 0; j < 8; ++j) {
      const float c = y.value().at(i, j) - mean;
      var += c * c;
    }
    var /= 8.0f;
    EXPECT_NEAR(mean, 0.0f, 1e-4f);
    EXPECT_NEAR(var, 1.0f, 1e-2f);
  }
}

// ---------------------------------------------------------------------------
// Masks
// ---------------------------------------------------------------------------

TEST(MaskTest, CausalStructure) {
  Variable mask = MakeCausalMask(4);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      if (i >= j) {
        EXPECT_EQ(mask.value().at(i, j), 0.0f);
      } else {
        EXPECT_TRUE(std::isinf(mask.value().at(i, j)));
      }
    }
  }
}

TEST(MaskTest, CrossMaskOnlyAllowsCrossCategory) {
  const size_t ns = 2, nd = 3;
  Variable mask = MakeCrossMask(ns, nd);
  for (size_t i = 0; i < ns + nd; ++i) {
    for (size_t j = 0; j < ns + nd; ++j) {
      const bool i_static = i < ns, j_static = j < ns;
      if (i_static != j_static) {
        EXPECT_EQ(mask.value().at(i, j), 0.0f) << i << "," << j;
      } else {
        EXPECT_TRUE(std::isinf(mask.value().at(i, j))) << i << "," << j;
      }
    }
  }
}

TEST(MaskTest, BatchPaddingMaskBlocksPaddingKeys) {
  // Sample 0: first position padded; sample 1: none padded.
  std::vector<int32_t> ids = {-1, 3, 2, 0, 1, 2};
  Variable mask = MakeBatchPaddingMask(ids, 2, 3, /*causal=*/true);
  ASSERT_EQ(mask.value().dim(0), 6u);
  // Sample 0 row 1 (i=1): may attend j=1 only (j=0 is padding, j=2 future).
  EXPECT_TRUE(std::isinf(mask.value().at(1, 0)));
  EXPECT_EQ(mask.value().at(1, 1), 0.0f);
  EXPECT_TRUE(std::isinf(mask.value().at(1, 2)));
  // Sample 0 row 0 is fully blocked -> diagonal fallback keeps it open.
  EXPECT_EQ(mask.value().at(0, 0), 0.0f);
  // Sample 1 row 2: causal allows all three.
  for (size_t j = 0; j < 3; ++j) EXPECT_EQ(mask.value().at(5, j), 0.0f);
}

TEST(MaskTest, FullyPaddedHistoryKeepsEachBlockSoftmaxable) {
  const float inf = std::numeric_limits<float>::infinity();
  const int32_t pad[3] = {-1, -1, -1};
  // Padding block: every key is padding, so each row keeps its diagonal.
  for (bool causal : {false, true}) {
    float block[9];
    PaddingMaskBlock(pad, 3, causal, block);
    for (size_t i = 0; i < 3; ++i) {
      for (size_t j = 0; j < 3; ++j) {
        EXPECT_EQ(block[i * 3 + j], i == j ? 0.0f : -inf)
            << "causal=" << causal << " " << i << "," << j;
      }
    }
  }
  // History row: an empty history keeps its last slot open.
  float row[3];
  HistoryMaskBlock(pad, 3, row);
  EXPECT_EQ(row[0], -inf);
  EXPECT_EQ(row[1], -inf);
  EXPECT_EQ(row[2], 0.0f);
  // Cross block (ns = 2, nd = 2): static rows see only padded dynamic keys
  // and same-category static keys, so they fall back to the diagonal;
  // dynamic rows still attend to both static keys.
  float cross[16];
  CrossPaddingMaskBlock(pad, 2, 2, cross);
  const float want[16] = {0,    -inf, -inf, -inf,  //
                          -inf, 0,    -inf, -inf,  //
                          0,    0,    -inf, -inf,  //
                          0,    0,    -inf, -inf};
  for (size_t k = 0; k < 16; ++k) EXPECT_EQ(cross[k], want[k]) << k;
  // One real dynamic key reopens it for the static rows.
  const int32_t half[2] = {5, -1};
  CrossPaddingMaskBlock(half, 2, 2, cross);
  EXPECT_EQ(cross[0 * 4 + 0], -inf);
  EXPECT_EQ(cross[0 * 4 + 2], 0.0f);
  EXPECT_EQ(cross[1 * 4 + 3], -inf);
}

// ---------------------------------------------------------------------------
// SelfAttention: the central causality property
// ---------------------------------------------------------------------------

TEST(SelfAttentionTest, OutputShapeAndDeterminism) {
  Rng rng(48);
  SelfAttention att(6, &rng);
  Variable e = RandomInput({2, 5, 6}, &rng);
  Variable h1 = att.Forward(e, Variable());
  Variable h2 = att.Forward(e, Variable());
  ASSERT_EQ(h1.value().shape(), (std::vector<size_t>{2, 5, 6}));
  for (size_t i = 0; i < h1.value().size(); ++i) {
    EXPECT_EQ(h1.value().data()[i], h2.value().data()[i]);
  }
}

TEST(SelfAttentionTest, CausalMaskMakesOutputsIgnoreTheFuture) {
  Rng rng(49);
  const size_t n = 6, d = 4;
  SelfAttention att(d, &rng);
  Variable mask = MakeCausalMask(n);

  Tensor base({1, n, d});
  Rng data_rng(50);
  tensor::FillNormal(&base, &data_rng, 1.0f);
  Variable h_base = att.Forward(Variable::Constant(base), mask);

  // Perturb only the last row; all earlier output rows must be unchanged.
  Tensor perturbed = base;
  for (size_t j = 0; j < d; ++j) perturbed.at(0, n - 1, j) += 5.0f;
  Variable h_pert = att.Forward(Variable::Constant(std::move(perturbed)), mask);

  for (size_t i = 0; i + 1 < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      EXPECT_NEAR(h_base.value().at(0, i, j), h_pert.value().at(0, i, j),
                  1e-6f)
          << "row " << i << " saw the future";
    }
  }
  // The last row must change (it attends to itself).
  float diff = 0.0f;
  for (size_t j = 0; j < d; ++j) {
    diff += std::abs(h_base.value().at(0, n - 1, j) -
                     h_pert.value().at(0, n - 1, j));
  }
  EXPECT_GT(diff, 1e-3f);
}

TEST(SelfAttentionTest, CrossMaskBlocksSameCategoryInfluence) {
  Rng rng(51);
  const size_t ns = 2, nd = 3, d = 4;
  SelfAttention att(d, &rng);
  Variable mask = MakeCrossMask(ns, nd);

  Tensor base({1, ns + nd, d});
  Rng data_rng(52);
  tensor::FillNormal(&base, &data_rng, 1.0f);
  Variable h_base = att.Forward(Variable::Constant(base), mask);

  // Perturbing static row 1 must not change static row 0's output (static
  // rows only attend to dynamic rows).
  Tensor perturbed = base;
  for (size_t j = 0; j < d; ++j) perturbed.at(0, 1, j) += 3.0f;
  Variable h_pert = att.Forward(Variable::Constant(std::move(perturbed)), mask);
  for (size_t j = 0; j < d; ++j) {
    EXPECT_NEAR(h_base.value().at(0, 0, j), h_pert.value().at(0, 0, j), 1e-6f);
  }
}

// ---------------------------------------------------------------------------
// ResidualFeedForward
// ---------------------------------------------------------------------------

TEST(ResidualFfnTest, ParameterCountScalesWithDepth) {
  Rng rng(53);
  ResidualFeedForward f1(8, 1, &rng), f3(8, 3, &rng);
  EXPECT_EQ(f1.Parameters().size(), 4u);
  EXPECT_EQ(f3.Parameters().size(), 12u);
}

TEST(ResidualFfnTest, ResidualPathPreservesInputWhenInnerIsZero) {
  Rng rng(54);
  ResidualFeedForward ffn(4, 1, &rng, /*use_residual=*/true,
                          /*use_layer_norm=*/true);
  // Zero the layer weight so the inner branch is ReLU(bias) = 0.
  auto params = ffn.NamedParameters();
  for (auto& [name, var] : params) {
    if (name == "w0" || name == "b0") var.mutable_value().Zero();
  }
  Rng data_rng(55);
  Variable x = RandomInput({3, 4}, &data_rng);
  Variable y = ffn.Forward(x, 1.0f, /*training=*/false, &rng);
  for (size_t i = 0; i < x.value().size(); ++i) {
    EXPECT_NEAR(y.value().data()[i], x.value().data()[i], 1e-6f);
  }
}

TEST(ResidualFfnTest, NoResidualDropsIdentityPath) {
  Rng rng(56);
  ResidualFeedForward ffn(4, 1, &rng, /*use_residual=*/false,
                          /*use_layer_norm=*/true);
  auto params = ffn.NamedParameters();
  for (auto& [name, var] : params) {
    if (name == "w0" || name == "b0") var.mutable_value().Zero();
  }
  Rng data_rng(57);
  Variable x = RandomInput({3, 4}, &data_rng);
  Variable y = ffn.Forward(x, 1.0f, false, &rng);
  for (size_t i = 0; i < y.value().size(); ++i) {
    EXPECT_EQ(y.value().data()[i], 0.0f);
  }
}

TEST(ResidualFfnTest, EvalIsDeterministicDespiteDropout) {
  Rng rng(58);
  ResidualFeedForward ffn(6, 2, &rng);
  Rng data_rng(59);
  Variable x = RandomInput({2, 6}, &data_rng);
  Variable y1 = ffn.Forward(x, 0.5f, /*training=*/false, &rng);
  Variable y2 = ffn.Forward(x, 0.5f, /*training=*/false, &rng);
  for (size_t i = 0; i < y1.value().size(); ++i) {
    EXPECT_EQ(y1.value().data()[i], y2.value().data()[i]);
  }
}

// ---------------------------------------------------------------------------
// Mlp & Gru
// ---------------------------------------------------------------------------

TEST(MlpTest, ShapesAndFinalLayerIsLinear) {
  Rng rng(60);
  Mlp mlp({5, 8, 1}, &rng);
  Rng data_rng(61);
  Variable x = RandomInput({3, 5}, &data_rng);
  Variable y = mlp.Forward(x, 1.0f, false, &rng);
  ASSERT_EQ(y.value().shape(), (std::vector<size_t>{3, 1}));
  // The final layer has no ReLU: negative outputs must be possible. With a
  // fixed seed just check outputs are not all clamped at >= 0 across seeds.
  bool saw_negative = false;
  for (int s = 0; s < 5 && !saw_negative; ++s) {
    Rng r2(100 + s);
    Variable x2 = RandomInput({8, 5}, &r2);
    Variable y2 = mlp.Forward(x2, 1.0f, false, &rng);
    for (size_t i = 0; i < y2.value().size(); ++i) {
      saw_negative |= y2.value().data()[i] < 0.0f;
    }
  }
  EXPECT_TRUE(saw_negative);
}

TEST(GruTest, FinalStateShapeAndSequenceSensitivity) {
  Rng rng(62);
  Gru gru(3, 5, &rng);
  Rng data_rng(63);
  Tensor seq_a({2, 4, 3});
  tensor::FillNormal(&seq_a, &data_rng, 1.0f);
  Tensor seq_b = seq_a;
  // Swap two timesteps of sample 0: GRU output must change (order matters).
  for (size_t j = 0; j < 3; ++j) {
    std::swap(seq_b.at(0, 0, j), seq_b.at(0, 3, j));
  }
  Variable ha = gru.Forward(Variable::Constant(std::move(seq_a)));
  Variable hb = gru.Forward(Variable::Constant(std::move(seq_b)));
  ASSERT_EQ(ha.value().shape(), (std::vector<size_t>{2, 5}));
  float diff0 = 0.0f, diff1 = 0.0f;
  for (size_t j = 0; j < 5; ++j) {
    diff0 += std::abs(ha.value().at(0, j) - hb.value().at(0, j));
    diff1 += std::abs(ha.value().at(1, j) - hb.value().at(1, j));
  }
  EXPECT_GT(diff0, 1e-4f);   // reordered sample changed
  EXPECT_NEAR(diff1, 0.0f, 1e-6f);  // untouched sample identical
}

TEST(GruTest, GradientsFlowToAllParameters) {
  Rng rng(64);
  Gru gru(2, 3, &rng);
  Rng data_rng(65);
  Variable seq = RandomInput({1, 3, 2}, &data_rng);
  Variable loss = autograd::SumAll(gru.Forward(seq));
  autograd::Backward(loss);
  for (const auto& p : gru.Parameters()) {
    float norm = 0.0f;
    for (size_t i = 0; i < p.grad().size(); ++i) {
      norm += std::abs(p.grad().data()[i]);
    }
    EXPECT_GT(norm, 0.0f);
  }
}

}  // namespace
}  // namespace nn
}  // namespace seqfm
