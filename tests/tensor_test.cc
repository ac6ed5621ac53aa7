#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "tensor/init.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace seqfm {
namespace tensor {
namespace {

TEST(TensorTest, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_EQ(t.size(), 6u);
  for (size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t.data()[i], 0.0f);
}

TEST(TensorTest, FactoryHelpers) {
  Tensor ones = Tensor::Ones({4});
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(ones.at(i), 1.0f);
  Tensor full = Tensor::Full({2, 2}, 3.5f);
  EXPECT_EQ(full.at(1, 1), 3.5f);
}

TEST(TensorTest, FromVectorChecksSize) {
  auto ok = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->at(1, 0), 3.0f);
  auto bad = Tensor::FromVector({2, 2}, {1, 2, 3});
  EXPECT_FALSE(bad.ok());
  auto bad_rank = Tensor::FromVector({}, {});
  EXPECT_FALSE(bad_rank.ok());
}

TEST(TensorTest, Rank3IndexingIsRowMajor) {
  auto t = Tensor::FromVector({2, 2, 3},
                              {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
               .ValueOrDie();
  EXPECT_EQ(t.at(0, 1, 2), 5.0f);
  EXPECT_EQ(t.at(1, 0, 0), 6.0f);
  EXPECT_EQ(t.BatchData(1)[0], 6.0f);
}

TEST(TensorTest, ReshapePreservesData) {
  auto t = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6}).ValueOrDie();
  ASSERT_TRUE(t.ReshapeInPlace({3, 2}).ok());
  EXPECT_EQ(t.at(2, 1), 6.0f);
  EXPECT_FALSE(t.ReshapeInPlace({4, 2}).ok());
}

TEST(TensorTest, AddScaledAndScale) {
  auto a = Tensor::FromVector({3}, {1, 2, 3}).ValueOrDie();
  auto b = Tensor::FromVector({3}, {10, 20, 30}).ValueOrDie();
  a.AddScaled(b, 0.5f);
  EXPECT_EQ(a.at(0), 6.0f);
  EXPECT_EQ(a.at(2), 18.0f);
  a.Scale(2.0f);
  EXPECT_EQ(a.at(1), 24.0f);
}

TEST(TensorTest, ItemRequiresScalar) {
  auto t = Tensor::FromVector({1}, {7}).ValueOrDie();
  EXPECT_EQ(t.Item(), 7.0f);
}

TEST(TensorTest, ToStringShowsShape) {
  Tensor t({2, 3, 4});
  const std::string s = t.ToString(2);
  EXPECT_NE(s.find("2x3x4"), std::string::npos);
  EXPECT_NE(s.find("..."), std::string::npos);
}

// ---------------------------------------------------------------------------
// GEMM against a naive reference
// ---------------------------------------------------------------------------

Tensor NaiveMatMul(const Tensor& a, const Tensor& b, bool ta, bool tb) {
  const size_t m = ta ? a.dim(1) : a.dim(0);
  const size_t k = ta ? a.dim(0) : a.dim(1);
  const size_t n = tb ? b.dim(0) : b.dim(1);
  Tensor c({m, n});
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (size_t p = 0; p < k; ++p) {
        const float av = ta ? a.at(p, i) : a.at(i, p);
        const float bv = tb ? b.at(j, p) : b.at(p, j);
        acc += av * bv;
      }
      c.at(i, j) = acc;
    }
  }
  return c;
}

class GemmVariantTest : public ::testing::TestWithParam<std::pair<bool, bool>> {};

TEST_P(GemmVariantTest, MatchesNaive) {
  const auto [ta, tb] = GetParam();
  Rng rng(21);
  const size_t m = 5, k = 7, n = 4;
  Tensor a(ta ? std::vector<size_t>{k, m} : std::vector<size_t>{m, k});
  Tensor b(tb ? std::vector<size_t>{n, k} : std::vector<size_t>{k, n});
  FillNormal(&a, &rng, 1.0f);
  FillNormal(&b, &rng, 1.0f);
  Tensor got({m, n});
  MatMul(a, b, &got, ta, tb);
  Tensor want = NaiveMatMul(a, b, ta, tb);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.data()[i], want.data()[i], 1e-4f);
  }
}

TEST_P(GemmVariantTest, AccumulateAddsToOutput) {
  const auto [ta, tb] = GetParam();
  Rng rng(22);
  const size_t m = 3, k = 4, n = 2;
  Tensor a(ta ? std::vector<size_t>{k, m} : std::vector<size_t>{m, k});
  Tensor b(tb ? std::vector<size_t>{n, k} : std::vector<size_t>{k, n});
  FillNormal(&a, &rng, 1.0f);
  FillNormal(&b, &rng, 1.0f);
  Tensor out = Tensor::Full({m, n}, 10.0f);
  MatMul(a, b, &out, ta, tb, /*accumulate=*/true);
  Tensor want = NaiveMatMul(a, b, ta, tb);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out.data()[i], want.data()[i] + 10.0f, 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTransposeCombos, GemmVariantTest,
    ::testing::Values(std::pair{false, false}, std::pair{false, true},
                      std::pair{true, false}, std::pair{true, true}));

// ---------------------------------------------------------------------------
// Blocked/parallel GEMM vs the naive reference: bit-for-bit, odd shapes,
// every transpose combo, several thread counts.
// ---------------------------------------------------------------------------

struct GemmShape {
  size_t m, k, n;
};

class GemmBitExactTest
    : public ::testing::TestWithParam<std::tuple<GemmShape, size_t>> {
 protected:
  void TearDown() override { util::SetGlobalThreads(1); }
};

TEST_P(GemmBitExactTest, MatchesReferenceBitForBit) {
  const auto [shape, threads] = GetParam();
  util::SetGlobalThreads(threads);
  const auto [m, k, n] = shape;
  Rng rng(91);
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      for (const bool accumulate : {false, true}) {
        std::vector<float> a(m * k), b(k * n);
        for (auto& v : a) v = static_cast<float>(rng.Normal());
        for (auto& v : b) v = static_cast<float>(rng.Normal());
        std::vector<float> got(m * n), want(m * n);
        for (size_t i = 0; i < m * n; ++i) {
          got[i] = want[i] = static_cast<float>(i % 17) - 8.0f;
        }
        Gemm(a.data(), b.data(), got.data(), m, k, n, ta, tb, accumulate);
        GemmReference(a.data(), b.data(), want.data(), m, k, n, ta, tb,
                      accumulate);
        for (size_t i = 0; i < m * n; ++i) {
          ASSERT_EQ(got[i], want[i])
              << "m=" << m << " k=" << k << " n=" << n << " ta=" << ta
              << " tb=" << tb << " acc=" << accumulate
              << " threads=" << threads << " elem=" << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    OddShapesAcrossThreads, GemmBitExactTest,
    ::testing::Combine(::testing::Values(GemmShape{1, 1, 1},     // scalar
                                         GemmShape{1, 7, 5},     // single row
                                         GemmShape{257, 3, 2},   // tall-skinny
                                         GemmShape{5, 1, 33},    // k = 1
                                         GemmShape{6, 64, 6},    // deep-narrow
                                         GemmShape{33, 17, 129}  // off-tile
                                         ),
                       ::testing::Values(size_t{1}, size_t{2}, size_t{8})));

// A shape large enough (>= kGemmParallelMinWork) to actually cross the
// parallel dispatch threshold at every tested thread count.
TEST(GemmBitExactLargeTest, ParallelPathMatchesSerialBitForBit) {
  const size_t m = 96, k = 48, n = 64;
  Rng rng(92);
  std::vector<float> a(m * k), b(k * n);
  for (auto& v : a) v = static_cast<float>(rng.Normal());
  for (auto& v : b) v = static_cast<float>(rng.Normal());
  std::vector<float> serial(m * n);
  util::SetGlobalThreads(1);
  Gemm(a.data(), b.data(), serial.data(), m, k, n, false, false, false);
  for (const size_t threads : {2u, 4u, 8u}) {
    util::SetGlobalThreads(threads);
    std::vector<float> parallel(m * n);
    Gemm(a.data(), b.data(), parallel.data(), m, k, n, false, false, false);
    EXPECT_EQ(serial, parallel) << "threads=" << threads;
  }
  util::SetGlobalThreads(1);
}

// ---------------------------------------------------------------------------
// Degenerate sizes and contract violations
// ---------------------------------------------------------------------------

TEST(GemmDegenerateTest, EmptyOutputIsNoOp) {
  float b_data[4] = {1, 2, 3, 4};
  // m == 0 and n == 0 must not touch C (even a null C is legal then).
  Gemm(b_data, b_data, nullptr, 0, 2, 2, false, false, false);
  float c = 42.0f;
  Gemm(b_data, b_data, &c, 0, 2, 2, false, false, false);
  EXPECT_EQ(c, 42.0f);
  Gemm(b_data, b_data, &c, 1, 2, 0, false, false, false);
  EXPECT_EQ(c, 42.0f);
}

TEST(GemmDegenerateTest, KZeroIsEmptySum) {
  float c[4] = {1, 2, 3, 4};
  // Overwrite semantics: C <- 0 (A and B may be null since k == 0).
  Gemm(nullptr, nullptr, c, 2, 0, 2, false, false, false);
  for (float v : c) EXPECT_EQ(v, 0.0f);
  float c2[4] = {1, 2, 3, 4};
  // Accumulate semantics: C unchanged.
  Gemm(nullptr, nullptr, c2, 2, 0, 2, false, false, true);
  EXPECT_EQ(c2[0], 1.0f);
  EXPECT_EQ(c2[3], 4.0f);
}

TEST(GemmDegenerateTest, ReferenceAgreesOnDegenerateCases) {
  float c[4] = {1, 2, 3, 4};
  GemmReference(nullptr, nullptr, c, 2, 0, 2, false, false, false);
  for (float v : c) EXPECT_EQ(v, 0.0f);
  float sentinel = 7.0f;
  GemmReference(nullptr, nullptr, &sentinel, 0, 3, 3, false, false, false);
  EXPECT_EQ(sentinel, 7.0f);
}

TEST(GemmDeathTest, NullPointersWithRealWorkAbort) {
  float x[4] = {1, 2, 3, 4};
  EXPECT_DEATH(Gemm(nullptr, x, x, 2, 2, 2, false, false, false), "null A");
  EXPECT_DEATH(Gemm(x, nullptr, x, 2, 2, 2, false, false, false), "null B");
  EXPECT_DEATH(Gemm(x, x, nullptr, 2, 2, 2, false, false, false), "null C");
}

TEST(GemmDeathTest, MatMulShapeMismatchAborts) {
  Tensor a({2, 3}), b({4, 2}), out({2, 2});
  EXPECT_DEATH(MatMul(a, b, &out), "Check failed");
  Tensor bad_out({3, 2});
  Tensor b_ok({3, 2});
  EXPECT_DEATH(MatMul(a, b_ok, &bad_out), "Check failed");
}

TEST(BatchedMatMulTest, PerBatchProducts) {
  Rng rng(23);
  Tensor a({3, 2, 4}), b({3, 4, 5});
  FillNormal(&a, &rng, 1.0f);
  FillNormal(&b, &rng, 1.0f);
  Tensor out({3, 2, 5});
  BatchedMatMul(a, b, &out);
  for (size_t bt = 0; bt < 3; ++bt) {
    for (size_t i = 0; i < 2; ++i) {
      for (size_t j = 0; j < 5; ++j) {
        float acc = 0.0f;
        for (size_t p = 0; p < 4; ++p) acc += a.at(bt, i, p) * b.at(bt, p, j);
        EXPECT_NEAR(out.at(bt, i, j), acc, 1e-4f);
      }
    }
  }
}

TEST(BatchedMatMulSharedTest, EquivalentToFlattened) {
  Rng rng(24);
  Tensor a({2, 3, 4}), w({4, 5});
  FillNormal(&a, &rng, 1.0f);
  FillNormal(&w, &rng, 1.0f);
  Tensor out({2, 3, 5});
  BatchedMatMulShared(a, w, &out);
  for (size_t bt = 0; bt < 2; ++bt) {
    for (size_t i = 0; i < 3; ++i) {
      for (size_t j = 0; j < 5; ++j) {
        float acc = 0.0f;
        for (size_t p = 0; p < 4; ++p) acc += a.at(bt, i, p) * w.at(p, j);
        EXPECT_NEAR(out.at(bt, i, j), acc, 1e-4f);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Softmax
// ---------------------------------------------------------------------------

TEST(SoftmaxTest, RowsSumToOne) {
  Rng rng(25);
  Tensor x({4, 6});
  FillNormal(&x, &rng, 2.0f);
  Tensor y({4, 6});
  SoftmaxLastDim(x, nullptr, &y);
  for (size_t i = 0; i < 4; ++i) {
    float total = 0.0f;
    for (size_t j = 0; j < 6; ++j) {
      EXPECT_GT(y.at(i, j), 0.0f);
      total += y.at(i, j);
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(SoftmaxTest, LargeValuesAreStable) {
  auto x = Tensor::FromVector({1, 3}, {1000.0f, 1001.0f, 999.0f}).ValueOrDie();
  Tensor y({1, 3});
  SoftmaxLastDim(x, nullptr, &y);
  for (size_t j = 0; j < 3; ++j) EXPECT_TRUE(std::isfinite(y.at(0, j)));
  EXPECT_GT(y.at(0, 1), y.at(0, 0));
}

TEST(SoftmaxTest, MaskedEntriesGetZeroProbability) {
  Rng rng(26);
  Tensor x({2, 4});
  FillNormal(&x, &rng, 1.0f);
  const float inf = std::numeric_limits<float>::infinity();
  auto mask =
      Tensor::FromVector({2, 4}, {0, -inf, 0, -inf, -inf, 0, 0, 0}).ValueOrDie();
  Tensor y({2, 4});
  SoftmaxLastDim(x, &mask, &y);
  EXPECT_EQ(y.at(0, 1), 0.0f);
  EXPECT_EQ(y.at(0, 3), 0.0f);
  EXPECT_EQ(y.at(1, 0), 0.0f);
  EXPECT_NEAR(y.at(0, 0) + y.at(0, 2), 1.0f, 1e-5f);
}

TEST(SoftmaxTest, MaskBroadcastsOverBatch) {
  Rng rng(27);
  Tensor x({3, 2, 2});
  FillNormal(&x, &rng, 1.0f);
  const float inf = std::numeric_limits<float>::infinity();
  auto mask = Tensor::FromVector({2, 2}, {0, -inf, 0, 0}).ValueOrDie();
  Tensor y({3, 2, 2});
  SoftmaxLastDim(x, &mask, &y);
  for (size_t b = 0; b < 3; ++b) {
    EXPECT_NEAR(y.at(b, 0, 0), 1.0f, 1e-5f);  // row 0: only col 0 open
    EXPECT_EQ(y.at(b, 0, 1), 0.0f);
  }
}

TEST(SoftmaxTest, FullyMaskedRowBecomesZeros) {
  Tensor x({1, 2});
  const float inf = std::numeric_limits<float>::infinity();
  auto mask = Tensor::FromVector({1, 2}, {-inf, -inf}).ValueOrDie();
  Tensor y({1, 2});
  SoftmaxLastDim(x, &mask, &y);
  EXPECT_EQ(y.at(0, 0), 0.0f);
  EXPECT_EQ(y.at(0, 1), 0.0f);
}

// ---------------------------------------------------------------------------
// Elementwise & reductions
// ---------------------------------------------------------------------------

TEST(ElementwiseTest, AddSubMul) {
  auto a = Tensor::FromVector({3}, {1, 2, 3}).ValueOrDie();
  auto b = Tensor::FromVector({3}, {4, 5, 6}).ValueOrDie();
  Tensor out({3});
  Add(a, b, &out);
  EXPECT_EQ(out.at(2), 9.0f);
  Sub(a, b, &out);
  EXPECT_EQ(out.at(0), -3.0f);
  Mul(a, b, &out);
  EXPECT_EQ(out.at(1), 10.0f);
}

TEST(ElementwiseTest, Activations) {
  auto x = Tensor::FromVector({4}, {-2, -0.5f, 0, 3}).ValueOrDie();
  Tensor y({4});
  Relu(x, &y);
  EXPECT_EQ(y.at(0), 0.0f);
  EXPECT_EQ(y.at(3), 3.0f);
  Sigmoid(x, &y);
  EXPECT_NEAR(y.at(2), 0.5f, 1e-6f);
  EXPECT_NEAR(y.at(3), 1.0f / (1.0f + std::exp(-3.0f)), 1e-6f);
  Tanh(x, &y);
  EXPECT_NEAR(y.at(0), std::tanh(-2.0f), 1e-6f);
}

TEST(ElementwiseTest, ScaleAndScaleInPlace) {
  auto x = Tensor::FromVector({3}, {1, -2, 0.5f}).ValueOrDie();
  Tensor y({3});
  Scale(x, -2.0f, &y);
  EXPECT_EQ(y.at(0), -2.0f);
  EXPECT_EQ(y.at(1), 4.0f);
  EXPECT_EQ(y.at(2), -1.0f);
  Scale(x, 3.0f, &x);  // in place, as a fused program runs it
  EXPECT_EQ(x.at(1), -6.0f);
}

TEST(ElementwiseTest, AddBroadcastBatchAddsTheTableToEverySample) {
  auto x = Tensor::FromVector({2, 2, 1}, {1, 2, 3, 4}).ValueOrDie();
  auto table = Tensor::FromVector({2, 1}, {10, 20}).ValueOrDie();
  Tensor out({2, 2, 1});
  AddBroadcastBatch(x, table, &out);
  EXPECT_EQ(out.at(0, 0, 0), 11.0f);
  EXPECT_EQ(out.at(0, 1, 0), 22.0f);
  EXPECT_EQ(out.at(1, 0, 0), 13.0f);
  EXPECT_EQ(out.at(1, 1, 0), 24.0f);
}

TEST(ElementwiseTest, LayerNormWithAndWithoutTapeOutputs) {
  // Row mean 2, variance 2/3 (eps 0): xhat = (x - 2) * sqrt(3/2).
  auto x = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 4, 4}).ValueOrDie();
  auto gamma = Tensor::FromVector({3}, {1, 2, 1}).ValueOrDie();
  auto beta = Tensor::FromVector({3}, {0, 0, 5}).ValueOrDie();
  Tensor plain({2, 3}), taped({2, 3}), xhat({2, 3});
  float inv_std[2] = {0.0f, 0.0f};
  LayerNorm(x, gamma, beta, 0.0f, &plain);
  LayerNorm(x, gamma, beta, 0.0f, &taped, &xhat, inv_std);
  const float s = std::sqrt(1.5f);
  EXPECT_NEAR(plain.at(0, 0), -s, 1e-5f);
  EXPECT_NEAR(plain.at(0, 1), 0.0f, 1e-6f);
  EXPECT_NEAR(plain.at(0, 2), s + 5.0f, 1e-5f);
  EXPECT_NEAR(xhat.at(0, 2), s, 1e-5f);
  EXPECT_NEAR(inv_std[0], s, 1e-5f);
  // A constant row has zero variance; eps 0 makes inv_std infinite.
  EXPECT_TRUE(std::isinf(inv_std[1]));
  for (size_t i = 0; i < 3; ++i) {
    // The tape outputs never change the forward's bits.
    EXPECT_EQ(std::memcmp(&plain.at(0, i), &taped.at(0, i), sizeof(float)),
              0);
  }
}

TEST(ElementwiseTest, StableSigmoidExtremes) {
  EXPECT_NEAR(StableSigmoid(100.0f), 1.0f, 1e-6f);
  EXPECT_NEAR(StableSigmoid(-100.0f), 0.0f, 1e-6f);
  EXPECT_TRUE(std::isfinite(LogSigmoid(-100.0f)));
  EXPECT_NEAR(LogSigmoid(100.0f), 0.0f, 1e-5f);
}

TEST(ReductionTest, AddBiasBroadcasts) {
  auto x = Tensor::FromVector({2, 3}, {0, 0, 0, 1, 1, 1}).ValueOrDie();
  auto b = Tensor::FromVector({3}, {10, 20, 30}).ValueOrDie();
  Tensor y({2, 3});
  AddBiasLastDim(x, b, &y);
  EXPECT_EQ(y.at(0, 2), 30.0f);
  EXPECT_EQ(y.at(1, 0), 11.0f);
}

TEST(ReductionTest, SumAxis1WithScale) {
  auto x = Tensor::FromVector({2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8}).ValueOrDie();
  Tensor out({2, 2});
  SumAxis1(x, 0.5f, &out);
  EXPECT_EQ(out.at(0, 0), 2.0f);  // (1+3)/2
  EXPECT_EQ(out.at(1, 1), 7.0f);  // (6+8)/2
}

TEST(ReductionTest, RowDotPerRow) {
  auto a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6}).ValueOrDie();
  auto b = Tensor::FromVector({2, 3}, {1, 0, -1, 2, 2, 2}).ValueOrDie();
  Tensor out({2, 1});
  RowDot(a, b, &out);
  EXPECT_EQ(out.at(0, 0), -2.0f);
  EXPECT_EQ(out.at(1, 0), 30.0f);
}

TEST(ReductionTest, BatchedMatMulLeftSharedAppliesOneLeftFactor) {
  // W [1, 2] = [1, -1]; P[b] [2, 2]: out[b] = row0 - row1.
  auto w = Tensor::FromVector({1, 2}, {1, -1}).ValueOrDie();
  auto p = Tensor::FromVector({2, 2, 2}, {5, 6, 1, 2, 0, 1, 3, 3})
               .ValueOrDie();
  Tensor out({2, 1, 2});
  BatchedMatMulLeftShared(w, p, &out);
  EXPECT_EQ(out.at(0, 0, 0), 4.0f);
  EXPECT_EQ(out.at(0, 0, 1), 4.0f);
  EXPECT_EQ(out.at(1, 0, 0), -3.0f);
  EXPECT_EQ(out.at(1, 0, 1), -2.0f);
}

TEST(ReductionTest, StructuralCopies) {
  auto a = Tensor::FromVector({2, 1}, {1, 2}).ValueOrDie();
  auto b = Tensor::FromVector({2, 2}, {3, 4, 5, 6}).ValueOrDie();
  auto c = Tensor::FromVector({2, 1}, {7, 8}).ValueOrDie();
  Tensor cat({2, 4});
  ConcatLastDim({&a, &b, &c}, &cat);
  const std::vector<float> want_cat = {1, 3, 4, 7, 2, 5, 6, 8};
  EXPECT_EQ(std::vector<float>(cat.data(), cat.data() + 8), want_cat);

  auto x = Tensor::FromVector({2, 1, 2}, {1, 2, 3, 4}).ValueOrDie();
  auto y = Tensor::FromVector({2, 2, 2}, {5, 6, 7, 8, 9, 10, 11, 12})
               .ValueOrDie();
  Tensor cat1({2, 3, 2});
  ConcatAxis1(x, y, &cat1);
  const std::vector<float> want_cat1 = {1, 2, 5,  6,  7,  8,
                                        3, 4, 9, 10, 11, 12};
  EXPECT_EQ(std::vector<float>(cat1.data(), cat1.data() + 12), want_cat1);

  Tensor row({2, 2});
  SliceRow(y, 1, &row);
  EXPECT_EQ(row.at(0, 0), 7.0f);
  EXPECT_EQ(row.at(1, 1), 12.0f);

  Tensor flat({8});
  CopyFlat(y, &flat);
  EXPECT_EQ(flat.at(5), 10.0f);

  Tensor expanded({2, 3, 1});
  ExpandRows(a, &expanded);
  const std::vector<float> want_expanded = {1, 1, 1, 2, 2, 2};
  EXPECT_EQ(std::vector<float>(expanded.data(), expanded.data() + 6),
            want_expanded);
}

TEST(ReductionTest, PairwiseProducts) {
  // Three rows r0 = [1, 2], r1 = [3, 4], r2 = [5, 6]: pairs in (0,1),
  // (0,2), (1,2) order.
  auto x = Tensor::FromVector({1, 3, 2}, {1, 2, 3, 4, 5, 6}).ValueOrDie();
  Tensor upper({1, 3, 2});
  PairwiseProductUpper(x, &upper);
  const std::vector<float> want_upper = {3, 8, 5, 12, 15, 24};
  EXPECT_EQ(std::vector<float>(upper.data(), upper.data() + 6), want_upper);

  // a rows [1, 2], [3, 4] crossed with b rows [10, 100]: i-major.
  auto a = Tensor::FromVector({1, 2, 2}, {1, 2, 3, 4}).ValueOrDie();
  auto b = Tensor::FromVector({1, 1, 2}, {10, 100}).ValueOrDie();
  Tensor cross({1, 2, 2});
  PairwiseProductCross(a, b, &cross);
  const std::vector<float> want_cross = {10, 200, 30, 400};
  EXPECT_EQ(std::vector<float>(cross.data(), cross.data() + 4), want_cross);
}

TEST(ReductionTest, EmbeddingGathersZeroPaddingIndices) {
  auto table = Tensor::FromVector({3, 2}, {1, 2, 3, 4, 5, 6}).ValueOrDie();
  const std::vector<int32_t> ids = {2, -1, 0, 1};  // [batch 2, n 2]
  auto index_at = [&ids](size_t b, size_t j) { return ids[b * 2 + j]; };
  Tensor out({2, 2, 2});
  out.Fill(-7.0f);  // the padding row must be written, not left as-is
  EmbeddingGather(table, index_at, &out);
  const std::vector<float> want = {5, 6, 0, 0, 1, 2, 3, 4};
  EXPECT_EQ(std::vector<float>(out.data(), out.data() + 8), want);

  auto weights = Tensor::FromVector({3, 1}, {0.5f, 2, 8}).ValueOrDie();
  Tensor sums({2, 1});
  EmbeddingSumGather(weights, index_at, 2, &sums);
  EXPECT_EQ(sums.at(0, 0), 8.0f);  // 8 + (padding: no term)
  EXPECT_EQ(sums.at(1, 0), 2.5f);  // 0.5 + 2
}

TEST(ReductionTest, SumLastAndSumAll) {
  auto x = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6}).ValueOrDie();
  Tensor out({2});
  SumLastDim(x, &out);
  EXPECT_EQ(out.at(0), 6.0f);
  EXPECT_EQ(out.at(1), 15.0f);
  EXPECT_EQ(SumAll(x), 21.0f);
}

// ---------------------------------------------------------------------------
// Initializers
// ---------------------------------------------------------------------------

TEST(InitTest, XavierBoundsRespectFanInOut) {
  Rng rng(30);
  Tensor w({100, 50});
  FillXavier(&w, &rng);
  const float bound = std::sqrt(6.0f / 150.0f);
  float max_abs = 0.0f;
  for (size_t i = 0; i < w.size(); ++i) {
    max_abs = std::max(max_abs, std::abs(w.data()[i]));
  }
  EXPECT_LE(max_abs, bound);
  EXPECT_GT(max_abs, bound * 0.5f);  // not degenerate
}

TEST(InitTest, NormalStddev) {
  Rng rng(31);
  Tensor w({200, 50});
  FillNormal(&w, &rng, 0.1f);
  double sum_sq = 0.0;
  for (size_t i = 0; i < w.size(); ++i) {
    sum_sq += static_cast<double>(w.data()[i]) * w.data()[i];
  }
  EXPECT_NEAR(std::sqrt(sum_sq / w.size()), 0.1, 0.01);
}

}  // namespace
}  // namespace tensor
}  // namespace seqfm
