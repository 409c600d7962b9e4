// synthesis_differential_test - the fused synthetic-layer builder against
// the float reference it replaces.
//
// make_random_quant_layer draws a layer's weight normals in bulk
// (NormalDraw), evaluates Box-Muller with an approximate vectorized
// kernel where the host has one, and quantizes straight to int8,
// recomputing exactly every element the approximation cannot settle.
// This suite pins that the shortcut is invisible:
//   (1) a bulk draw consumes the same uniforms as the same number of
//       Rng::normal() calls and leaves the Rng in the same state,
//       cached variate included;
//   (2) the kernel stays within a thousandth of its stated error bound,
//       on edge uniforms and on 2^24 random pairs;
//   (3) every zoo layer x dilation {1, 2} x depth multiplier {1, 2}
//       builds bit for bit what quantize_layer(make_random_float_layer())
//       builds, on the kernel path and on the forced libm path.
//
// Seeds follow the differential harness: a pinned default, overridden by
// the EDEA_DIFF_SEED environment variable (decimal) - CI runs the suite
// on both, so the drifting leg keeps exploring new draws.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "nn/layers.hpp"
#include "nn/model_zoo.hpp"
#include "nn/synthetic_weights.hpp"
#include "util/hash.hpp"
#include "util/random.hpp"

namespace edea::nn {
namespace {

/// The harness seed: EDEA_DIFF_SEED when set (decimal), else pinned.
std::uint64_t harness_seed() {
  const char* env = std::getenv("EDEA_DIFF_SEED");
  if (env == nullptr || *env == '\0') return 20250807ull;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(env, &end, 10);
  EXPECT_TRUE(end != nullptr && *end == '\0')
      << "EDEA_DIFF_SEED must be a decimal integer, got '" << env << "'";
  return parsed;
}

std::string seed_note() {
  return " (harness seed " + std::to_string(harness_seed()) +
         "; replay with EDEA_DIFF_SEED)";
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

const DrawPath kPaths[] = {DrawPath::kAuto, DrawPath::kLibm};

const char* path_name(DrawPath path) {
  return path == DrawPath::kAuto ? "auto" : "libm";
}

/// Two Rngs in the same state produce the same continuation: the cached
/// variate first, then fresh pairs, then raw words.
void expect_same_state(Rng& a, Rng& b, const std::string& where) {
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(bits(a.normal()), bits(b.normal())) << where << " normal " << k;
  }
  EXPECT_EQ(a(), b()) << where << " raw word";
}

/// Bulk-draws `counts` back to back from one Rng and compares every
/// variate - exact and approximate - with scalar normal() calls on a
/// twin, then the two Rngs' states.
void check_draws(std::uint64_t seed, bool cached_first,
                 const std::vector<std::size_t>& counts, DrawPath path) {
  std::ostringstream label;
  label << path_name(path) << " seed " << seed << " counts";
  for (const std::size_t n : counts) label << ' ' << n;
  if (cached_first) label << " after one normal()";
  label << seed_note();
  const std::string where = label.str();

  Rng bulk(seed);
  Rng scalar(seed);
  if (cached_first) {
    ASSERT_EQ(bits(bulk.normal()), bits(scalar.normal())) << where;
  }
  for (const std::size_t n : counts) {
    const NormalDraw draw(bulk, n, path);
    ASSERT_EQ(draw.size(), n) << where;
    for (std::size_t i = 0; i < n; ++i) {
      const double expected = scalar.normal();
      ASSERT_EQ(bits(draw.exact(i)), bits(expected))
          << where << ": variate " << i;
      const double approx = static_cast<double>(draw.approx()[i]);
      ASSERT_LE(std::abs(approx - expected),
                NormalDraw::kKernelErrorBound + 0x1p-23 * std::abs(approx))
          << where << ": variate " << i;
    }
  }
  expect_same_state(bulk, scalar, where);
}

TEST(NormalDraw, EqualsScalarNormalCallsAndLeavesTheSameState) {
  const std::uint64_t seed = harness_seed();
  const std::size_t sizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65,
                               127, 128, 129, 130, 1000, 1001};
  for (const DrawPath path : kPaths) {
    for (const std::size_t n : sizes) {
      for (const bool cached_first : {false, true}) {
        check_draws(seed + n, cached_first, {n}, path);
      }
    }
  }
}

TEST(NormalDraw, ConsecutiveDrawsStraddleLikeDwcThenPwc) {
  // A layer draws its DWC normals then its PWC normals; on an odd first
  // count the pair that straddles the boundary is split between them.
  const std::uint64_t seed = harness_seed();
  const std::vector<std::vector<std::size_t>> runs = {
      {27, 96}, {9, 8}, {1, 1}, {3, 0, 5}, {129, 127, 2}, {0, 0}, {65, 64}};
  for (const DrawPath path : kPaths) {
    for (const auto& counts : runs) {
      for (const bool cached_first : {false, true}) {
        check_draws(seed ^ 0x5eed, cached_first, counts, path);
      }
    }
  }
}

TEST(NormalDraw, LibmPathApproximationsAreTheExactVariatesNarrowed) {
  Rng rng(harness_seed());
  const NormalDraw draw(rng, 301, DrawPath::kLibm);
  EXPECT_FALSE(draw.vectorized());
  for (std::size_t i = 0; i < draw.size(); ++i) {
    EXPECT_EQ(draw.approx()[i], static_cast<float>(draw.exact(i))) << i;
  }
}

/// The kernel's worst error over the pairs, against Rng::box_muller.
double kernel_max_error(const std::vector<double>& u1,
                        const std::vector<double>& u2) {
  std::vector<double> first(u1.size());
  std::vector<double> second(u1.size());
  detail::vector_box_muller(u1.data(), u2.data(), u1.size(), first.data(),
                            second.data());
  double worst = 0.0;
  for (std::size_t k = 0; k < u1.size(); ++k) {
    double f = 0.0;
    double s = 0.0;
    Rng::box_muller(u1[k], u2[k], f, s);
    worst = std::max({worst, std::abs(first[k] - f), std::abs(second[k] - s)});
  }
  return worst;
}

TEST(NormalDraw, KernelErrorStaysFarInsideItsBound) {
  if (!detail::vector_box_muller_available()) {
    GTEST_SKIP() << "host lacks AVX2+FMA; only the libm path runs here";
  }
  const double bound = NormalDraw::kKernelErrorBound / 1000.0;

  // Edge uniforms: u1 at both ends of (0, 1), u2 one ulp either side of
  // every quadrant boundary k/4, crossed with each other.
  std::vector<double> edge_u1 = {0x1p-53, 1.0 - 0x1p-53, 0x1p-52, 0.5,
                                 std::nextafter(0.5, 0.0), 0x1.6a09e667f3bcdp-1,
                                 0.999999};
  std::vector<double> edge_u2;
  for (int k = 0; k <= 4; ++k) {
    const double q = k / 4.0;
    for (const double u : {std::nextafter(q, 0.0), q, std::nextafter(q, 1.0)}) {
      if (u >= 0.0 && u < 1.0) edge_u2.push_back(u);
    }
  }
  edge_u2.push_back(1.0 - 0x1p-53);
  std::vector<double> u1;
  std::vector<double> u2;
  for (const double a : edge_u1) {
    for (const double b : edge_u2) {
      u1.push_back(a);
      u2.push_back(b);
    }
  }
  EXPECT_LE(kernel_max_error(u1, u2), bound) << "edge uniforms";

  // 2^24 random pairs, drawn the way normal() draws them, in batches.
  Rng rng(harness_seed());
  constexpr std::size_t kBatch = std::size_t{1} << 16;
  u1.assign(kBatch, 0.0);
  u2.assign(kBatch, 0.0);
  double worst = 0.0;
  for (int batch = 0; batch < 256; ++batch) {
    for (std::size_t k = 0; k < kBatch; ++k) {
      rng.box_muller_uniforms(u1[k], u2[k]);
    }
    worst = std::max(worst, kernel_max_error(u1, u2));
  }
  EXPECT_LE(worst, bound) << "random pairs" << seed_note();
}

void expect_same_layer(const QuantDscLayer& got, const QuantDscLayer& want,
                       const std::string& where) {
  ASSERT_EQ(got.dwc_weights.shape(), want.dwc_weights.shape()) << where;
  ASSERT_EQ(got.pwc_weights.shape(), want.pwc_weights.shape()) << where;
  EXPECT_EQ(got.dwc_weights.storage(), want.dwc_weights.storage()) << where;
  EXPECT_EQ(got.pwc_weights.storage(), want.pwc_weights.storage()) << where;
  EXPECT_EQ(got.input_scale.scale, want.input_scale.scale) << where;
  EXPECT_EQ(got.intermediate_scale.scale, want.intermediate_scale.scale)
      << where;
  EXPECT_EQ(got.output_scale.scale, want.output_scale.scale) << where;
  for (const auto& [g, w] : {std::pair{&got.nonconv1, &want.nonconv1},
                             std::pair{&got.nonconv2, &want.nonconv2}}) {
    ASSERT_EQ(g->channel_count(), w->channel_count()) << where;
    for (std::size_t c = 0; c < g->channel_count(); ++c) {
      EXPECT_EQ(g->channels[c].k.raw(), w->channels[c].k.raw()) << where;
      EXPECT_EQ(g->channels[c].b.raw(), w->channels[c].b.raw()) << where;
    }
    EXPECT_EQ(g->k_float, w->k_float) << where;
    EXPECT_EQ(g->b_float, w->b_float) << where;
  }
}

struct ZooCase {
  std::string network;
  int dilation = 1;
  int depth_multiplier = 1;
};

std::string zoo_case_name(const ::testing::TestParamInfo<ZooCase>& info) {
  std::string name = info.param.network + "_d" +
                     std::to_string(info.param.dilation) + "_m" +
                     std::to_string(info.param.depth_multiplier);
  for (char& ch : name) {
    if (ch == '-' || ch == '.') ch = '_';
  }
  return name;
}

std::vector<ZooCase> zoo_cases() {
  std::vector<ZooCase> cases;
  for (const std::string& network : zoo_network_names()) {
    for (const int dilation : {1, 2}) {
      for (const int multiplier : {1, 2}) {
        cases.push_back(ZooCase{network, dilation, multiplier});
      }
    }
  }
  return cases;
}

class FusedLayerTest : public ::testing::TestWithParam<ZooCase> {};

TEST_P(FusedLayerTest, MatchesTheFloatReferenceOnEveryPath) {
  const ZooCase& zc = GetParam();
  // The catalog's transform of a zoo network (service/session.cpp).
  std::vector<DscLayerSpec> specs = zoo_specs(zc.network);
  for (DscLayerSpec& spec : specs) {
    spec.dilation = zc.dilation;
    spec.padding *= zc.dilation;
    spec.depth_multiplier *= zc.depth_multiplier;
  }
  const QuantScale scale{0.03f};
  Rng seeds(harness_seed() ^
            util::Fnv1a64().bytes(zc.network.data(), zc.network.size())
                .digest());
  for (const DscLayerSpec& spec : specs) {
    const std::uint64_t layer_seed = seeds();
    Rng reference_rng(layer_seed);
    FloatDscLayer fl = make_random_float_layer(spec, reference_rng);
    saturate_bn_shift(fl.bn1, scale);
    saturate_bn_shift(fl.bn2, scale);
    const QuantDscLayer reference = quantize_layer(fl, scale, scale, scale);
    for (const DrawPath path : kPaths) {
      const std::string where = zc.network + " " + spec.to_string() + " " +
                                path_name(path) + " layer seed " +
                                std::to_string(layer_seed) + seed_note();
      Rng rng(layer_seed);
      const QuantDscLayer fused =
          make_random_quant_layer(spec, rng, scale, scale, scale, path);
      expect_same_layer(fused, reference, where);
      Rng after(layer_seed);
      (void)make_random_float_layer(spec, after);
      expect_same_state(rng, after, where);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ZooLayers, FusedLayerTest,
                         ::testing::ValuesIn(zoo_cases()), zoo_case_name);

}  // namespace
}  // namespace edea::nn
