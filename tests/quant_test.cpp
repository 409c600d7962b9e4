// Tests for the quantization layer (src/nn/quant.*): scale selection,
// round-trip error, Non-Conv folding correctness against the float
// definition of dequant + BN + ReLU + requant.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "nn/quant.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace edea::nn {
namespace {

TEST(QuantScale, QuantizeRoundsAndSaturates) {
  const QuantScale s{0.5f};
  EXPECT_EQ(s.quantize(1.0f), 2);
  EXPECT_EQ(s.quantize(0.26f), 1);   // 0.52 -> 1
  EXPECT_EQ(s.quantize(-0.26f), -1);
  EXPECT_EQ(s.quantize(1000.0f), 127);
  EXPECT_EQ(s.quantize(-1000.0f), -128);
}

TEST(QuantScale, DequantizeInverts) {
  const QuantScale s{0.25f};
  EXPECT_FLOAT_EQ(s.dequantize(4), 1.0f);
  EXPECT_FLOAT_EQ(s.dequantize(-8), -2.0f);
}

TEST(QuantScale, RoundTripErrorBoundedByHalfStep) {
  Rng rng(31);
  const QuantScale s{0.1f};
  for (int i = 0; i < 1000; ++i) {
    const auto v = static_cast<float>(rng.uniform(-12.0, 12.0));
    const float back = s.dequantize(s.quantize(v));
    EXPECT_NEAR(back, v, 0.05f + 1e-6f);
  }
}

TEST(ChooseWeightScale, UsesMaxAbsOver127) {
  FloatTensor w(Shape{3});
  w(0) = -2.54f;
  w(1) = 1.0f;
  w(2) = 0.1f;
  const QuantScale s = choose_weight_scale(w);
  EXPECT_NEAR(s.scale, 2.54f / 127.0f, 1e-6f);
}

TEST(ChooseWeightScale, DegenerateZeroTensor) {
  const FloatTensor w(Shape{4}, 0.0f);
  EXPECT_FLOAT_EQ(choose_weight_scale(w).scale, 1.0f);
}

TEST(ChooseActivationScale, Basics) {
  EXPECT_NEAR(choose_activation_scale(12.7).scale, 0.1f, 1e-6f);
  EXPECT_FLOAT_EQ(choose_activation_scale(0.0).scale, 1.0f);
  EXPECT_THROW((void)choose_activation_scale(-1.0), PreconditionError);
}

TEST(QuantizeTensor, ElementwiseAndShapePreserving) {
  FloatTensor t(Shape{2, 2});
  t(0, 0) = 0.5f;
  t(0, 1) = -0.5f;
  t(1, 0) = 0.24f;
  t(1, 1) = 10.0f;
  const Int8Tensor q = quantize_tensor(t, QuantScale{0.5f});
  EXPECT_EQ(q.shape(), t.shape());
  EXPECT_EQ(q(0, 0), 1);
  EXPECT_EQ(q(0, 1), -1);
  EXPECT_EQ(q(1, 0), 0);
  EXPECT_EQ(q(1, 1), 20);
}

TEST(QuantizeTensor, RejectsANonPositiveScaleBeforeAnyElement) {
  // The scale is checked once per tensor, so even a tensor with no
  // elements is refused; the per-element API keeps its own check.
  const FloatTensor t(Shape{2, 2}, 1.0f);
  EXPECT_THROW((void)quantize_tensor(t, QuantScale{0.0f}), PreconditionError);
  EXPECT_THROW((void)quantize_tensor(FloatTensor(), QuantScale{-1.0f}),
               PreconditionError);
  EXPECT_THROW((void)QuantScale{0.0f}.quantize(1.0f), PreconditionError);
}

// --------------------------------------------------------------- folding ---

BatchNormParams random_bn(int channels, Rng& rng) {
  BatchNormParams bn;
  for (int c = 0; c < channels; ++c) {
    bn.gamma.push_back(static_cast<float>(rng.uniform(0.5, 1.5)));
    bn.beta.push_back(static_cast<float>(rng.normal(0.0, 0.2)));
    bn.mean.push_back(static_cast<float>(rng.normal(0.0, 0.3)));
    bn.var.push_back(static_cast<float>(rng.uniform(0.5, 2.0)));
  }
  return bn;
}

TEST(FoldNonConv, ProducesOneParamPerChannel) {
  Rng rng(41);
  const BatchNormParams bn = random_bn(16, rng);
  const NonConvParams p = fold_nonconv(QuantScale{0.02f}, QuantScale{0.01f},
                                       bn, QuantScale{0.03f});
  EXPECT_EQ(p.channel_count(), 16u);
  EXPECT_EQ(p.k_float.size(), 16u);
  EXPECT_EQ(p.b_float.size(), 16u);
}

TEST(FoldNonConv, FoldingMatchesFloatPipeline) {
  // For a random accumulator, k*acc+b must equal the explicit chain:
  // dequant -> BN -> (ReLU) -> requant, before rounding.
  Rng rng(43);
  const int C = 8;
  const QuantScale in{0.02f}, wt{0.015f}, out{0.05f};
  const BatchNormParams bn = random_bn(C, rng);
  const NonConvParams p = fold_nonconv(in, wt, bn, out);

  for (int c = 0; c < C; ++c) {
    for (int trial = 0; trial < 100; ++trial) {
      const auto acc = static_cast<std::int32_t>(rng.uniform_int(-80000,
                                                                 80000));
      const auto cc = static_cast<std::size_t>(c);
      // Explicit chain.
      const double real = static_cast<double>(in.scale) * wt.scale * acc;
      const double bn_out = bn.effective_scale(cc) * real +
                            bn.effective_shift(cc);
      const double requant = bn_out / out.scale;
      // Folded chain (float form).
      const double folded = static_cast<double>(p.k_float[cc]) * acc +
                            p.b_float[cc];
      EXPECT_NEAR(folded, requant, std::abs(requant) * 1e-4 + 1e-3);
    }
  }
}

TEST(FoldNonConv, RejectsNonPositiveScales) {
  Rng rng(47);
  const BatchNormParams bn = random_bn(2, rng);
  EXPECT_THROW((void)fold_nonconv(QuantScale{0.0f}, QuantScale{0.01f}, bn,
                                  QuantScale{0.01f}),
               PreconditionError);
}

TEST(FoldNonConv, KAndBFitQ816ForRealisticNetworks) {
  // The paper chose Q8.16 "to cover all possible ranges of k and b". For
  // realistic scales and BN statistics, |k| and |b| stay far below 128.
  Rng rng(53);
  for (int trial = 0; trial < 50; ++trial) {
    const BatchNormParams bn = random_bn(8, rng);
    // Realistic calibrated scales: activations peak between ~2.5 and ~13
    // (scale = max/127), weights below 1. Degenerate sub-0.02 output
    // scales would push |b| past 128 - fold_nonconv then throws, which a
    // separate test covers.
    const QuantScale in{static_cast<float>(rng.uniform(0.02, 0.1))};
    const QuantScale wt{static_cast<float>(rng.uniform(0.005, 0.05))};
    const QuantScale out{static_cast<float>(rng.uniform(0.02, 0.1))};
    const NonConvParams p = fold_nonconv(in, wt, bn, out);
    for (std::size_t c = 0; c < p.channel_count(); ++c) {
      EXPECT_LT(std::abs(p.k_float[c]), 128.0f);
      EXPECT_LT(std::abs(p.b_float[c]), 128.0f);
    }
  }
}

TEST(FoldNonConv, OutOfRangeBThrowsLoudly) {
  // A pathologically small output scale pushes |b| past the Q8.16 range;
  // the fold must fail loudly rather than silently saturate.
  BatchNormParams bn;
  bn.gamma = {1.0f};
  bn.beta = {2.0f};
  bn.mean = {0.0f};
  bn.var = {1.0f};
  EXPECT_THROW((void)fold_nonconv(QuantScale{0.02f}, QuantScale{0.02f}, bn,
                                  QuantScale{0.001f}),
               PreconditionError);
}

// ----------------------------------------------------------- apply stage ---

TEST(ApplyNonConv, FixedPointVersusFloatWithinOneLsb) {
  Rng rng(59);
  const int C = 8;
  const BatchNormParams bn = random_bn(C, rng);
  const NonConvParams p = fold_nonconv(QuantScale{0.02f}, QuantScale{0.01f},
                                       bn, QuantScale{0.04f});
  Int32Tensor acc(Shape{4, 4, C});
  for (auto& v : acc.storage()) {
    v = static_cast<std::int32_t>(rng.uniform_int(-100000, 100000));
  }
  const Int8Tensor fixed = apply_nonconv(acc, p);
  const Int8Tensor ref = apply_nonconv_float(acc, p);
  int worst = 0;
  for (std::size_t i = 0; i < fixed.size(); ++i) {
    worst = std::max(worst, std::abs(static_cast<int>(fixed.storage()[i]) -
                                     static_cast<int>(ref.storage()[i])));
  }
  EXPECT_LE(worst, 1);
}

TEST(ApplyNonConv, OutputIsReluClamped) {
  Rng rng(61);
  const BatchNormParams bn = random_bn(4, rng);
  const NonConvParams p = fold_nonconv(QuantScale{0.02f}, QuantScale{0.01f},
                                       bn, QuantScale{0.04f});
  Int32Tensor acc(Shape{8, 8, 4});
  for (auto& v : acc.storage()) {
    v = static_cast<std::int32_t>(rng.uniform_int(-200000, 200000));
  }
  const Int8Tensor out = apply_nonconv(acc, p);
  for (const auto v : out.storage()) {
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 127);
  }
}

TEST(ApplyNonConv, ChannelCountMismatchThrows) {
  Rng rng(67);
  const BatchNormParams bn = random_bn(4, rng);
  const NonConvParams p = fold_nonconv(QuantScale{0.02f}, QuantScale{0.01f},
                                       bn, QuantScale{0.04f});
  Int32Tensor acc(Shape{2, 2, 8});
  EXPECT_THROW((void)apply_nonconv(acc, p), PreconditionError);
}

TEST(NonConvChannelParams, ApplyMatchesAffineHelper) {
  const NonConvChannelParams p{arch::Q8_16::from_double(0.5),
                               arch::Q8_16::from_double(2.0)};
  EXPECT_EQ(p.apply(10), 7);    // 0.5*10+2
  EXPECT_EQ(p.apply(-100), 0);  // ReLU
  EXPECT_EQ(p.apply(1000), 127);
}

}  // namespace
}  // namespace edea::nn
