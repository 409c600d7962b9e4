#include "nn/quant.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace edea::nn {

std::int8_t QuantScale::quantize(float real) const {
  EDEA_REQUIRE(scale > 0.0f, "quantization scale must be positive");
  return quantize_unchecked(real);
}

QuantScale choose_weight_scale(const FloatTensor& weights) {
  return choose_weight_scale(max_abs(weights));
}

QuantScale choose_weight_scale(double max_abs) {
  // Degenerate all-zero tensors get scale 1 so quantize() stays total.
  const float scale =
      max_abs > 0.0 ? static_cast<float>(max_abs / 127.0) : 1.0f;
  return QuantScale{scale};
}

QuantScale choose_activation_scale(double max_observed) {
  EDEA_REQUIRE(max_observed >= 0.0,
               "activation calibration maximum must be non-negative");
  const float scale =
      max_observed > 0.0 ? static_cast<float>(max_observed / 127.0) : 1.0f;
  return QuantScale{scale};
}

Int8Tensor quantize_tensor(const FloatTensor& t, QuantScale s) {
  EDEA_REQUIRE(s.scale > 0.0f, "quantization scale must be positive");
  Int8Tensor out(t.shape());
  const float* src = t.data();
  std::int8_t* dst = out.data();
  for (std::size_t i = 0; i < t.size(); ++i) {
    dst[i] = s.quantize_unchecked(src[i]);
  }
  return out;
}

FloatTensor dequantize_tensor(const Int8Tensor& t, QuantScale s) {
  FloatTensor out(t.shape());
  const std::int8_t* src = t.data();
  float* dst = out.data();
  for (std::size_t i = 0; i < t.size(); ++i) {
    dst[i] = s.dequantize(src[i]);
  }
  return out;
}

NonConvParams fold_nonconv(QuantScale input_scale, QuantScale weight_scale,
                           const BatchNormParams& bn,
                           QuantScale output_scale) {
  EDEA_REQUIRE(input_scale.scale > 0.0f && weight_scale.scale > 0.0f &&
                   output_scale.scale > 0.0f,
               "all scales must be positive");
  EDEA_REQUIRE(bn.channels() > 0, "BN must have at least one channel");

  NonConvParams params;
  params.channels.reserve(bn.channels());
  params.k_float.reserve(bn.channels());
  params.b_float.reserve(bn.channels());

  for (std::size_t c = 0; c < bn.channels(); ++c) {
    const double bn_scale = bn.effective_scale(c);
    const double bn_shift = bn.effective_shift(c);
    const double k = static_cast<double>(input_scale.scale) *
                     static_cast<double>(weight_scale.scale) * bn_scale /
                     static_cast<double>(output_scale.scale);
    const double b = bn_shift / static_cast<double>(output_scale.scale);
    params.k_float.push_back(static_cast<float>(k));
    params.b_float.push_back(static_cast<float>(b));
    params.channels.push_back(NonConvChannelParams{
        arch::Q8_16::from_double(k), arch::Q8_16::from_double(b)});
  }
  return params;
}

Int8Tensor apply_nonconv(const Int32Tensor& acc, const NonConvParams& params) {
  EDEA_REQUIRE(acc.rank() == 3, "apply_nonconv expects [N][M][C]");
  EDEA_REQUIRE(params.channel_count() ==
                   static_cast<std::size_t>(acc.dim(2)),
               "Non-Conv parameter count must match accumulator channels");
  Int8Tensor out(acc.shape());
  const int N = acc.dim(0), M = acc.dim(1), C = acc.dim(2);
  for (int n = 0; n < N; ++n) {
    for (int m = 0; m < M; ++m) {
      for (int c = 0; c < C; ++c) {
        out(n, m, c) =
            params.channels[static_cast<std::size_t>(c)].apply(acc(n, m, c));
      }
    }
  }
  return out;
}

Int8Tensor apply_nonconv_float(const Int32Tensor& acc,
                               const NonConvParams& params) {
  EDEA_REQUIRE(acc.rank() == 3, "apply_nonconv_float expects [N][M][C]");
  EDEA_REQUIRE(params.channel_count() ==
                   static_cast<std::size_t>(acc.dim(2)),
               "Non-Conv parameter count must match accumulator channels");
  Int8Tensor out(acc.shape());
  const int N = acc.dim(0), M = acc.dim(1), C = acc.dim(2);
  for (int n = 0; n < N; ++n) {
    for (int m = 0; m < M; ++m) {
      for (int c = 0; c < C; ++c) {
        const auto cc = static_cast<std::size_t>(c);
        const double y =
            static_cast<double>(params.k_float[cc]) * acc(n, m, c) +
            static_cast<double>(params.b_float[cc]);
        const double rounded = std::nearbyint(y);
        const double clamped =
            std::clamp(rounded, static_cast<double>(kActMin),
                       static_cast<double>(kActMax));
        out(n, m, c) = static_cast<std::int8_t>(clamped);
      }
    }
  }
  return out;
}

}  // namespace edea::nn
