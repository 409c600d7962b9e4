// quant.hpp - 8-bit symmetric quantization and Non-Conv folding math.
//
// The paper trains MobileNetV1 with LSQ (learned step size quantization) to
// 8 bits. Training infrastructure is out of scope for this reproduction, so
// we substitute calibration-based post-training quantization with the same
// *data path*: per-tensor symmetric scales, int8 operands, integer
// accumulation, and a folded y = k*x + b rescale stage (dequant + BN + ReLU
// + requant) with k, b in Q8.16 - exactly the arithmetic of Fig. 6. The
// substitution is documented in DESIGN.md section 2.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "arch/fixed_point.hpp"
#include "nn/ops.hpp"
#include "nn/tensor.hpp"

namespace edea::nn {

/// int8 quantization limits. Activations are post-ReLU, so their integer
/// range is [0, 127]; weights use the full symmetric range.
inline constexpr std::int32_t kInt8Min = -128;
inline constexpr std::int32_t kInt8Max = 127;
inline constexpr std::int32_t kActMin = 0;
inline constexpr std::int32_t kActMax = 127;

/// Per-tensor symmetric quantization parameter: real = scale * integer.
struct QuantScale {
  float scale = 1.0f;

  /// Quantizes a real value to int8 with round-to-nearest and saturation.
  /// Requires scale > 0.
  [[nodiscard]] std::int8_t quantize(float real) const;

  /// quantize() without the scale check, for loops that check it once.
  [[nodiscard]] std::int8_t quantize_unchecked(float real) const noexcept {
    const float rounded = std::nearbyint(real / scale);
    return static_cast<std::int8_t>(
        std::clamp(rounded, static_cast<float>(kInt8Min),
                   static_cast<float>(kInt8Max)));
  }

  /// Reconstructs the real value of an integer code.
  [[nodiscard]] float dequantize(std::int32_t q) const {
    return scale * static_cast<float>(q);
  }
};

/// Chooses a weight scale: max|w| / 127 (symmetric, full range).
[[nodiscard]] QuantScale choose_weight_scale(const FloatTensor& weights);

/// The weight scale for a tensor whose largest |w| is `max_abs`.
[[nodiscard]] QuantScale choose_weight_scale(double max_abs);

/// Chooses an activation scale from calibration data: max(v) / 127 where v
/// is the post-ReLU activation (non-negative). `max_observed` is the largest
/// value seen over the calibration batch.
[[nodiscard]] QuantScale choose_activation_scale(double max_observed);

/// Quantizes a float tensor to int8 under the given scale.
[[nodiscard]] Int8Tensor quantize_tensor(const FloatTensor& t, QuantScale s);

/// Dequantizes an int8 tensor to float under the given scale.
[[nodiscard]] FloatTensor dequantize_tensor(const Int8Tensor& t, QuantScale s);

/// Folded Non-Conv parameters for one output channel (Fig. 6):
///   y_int8 = clamp(round(k * acc + b), 0, 127)
/// where acc is the raw convolution accumulator. Folding:
///   k = s_in * s_w * gamma / sqrt(var + eps) / s_out
///   b = (beta - gamma * mean / sqrt(var + eps)) / s_out
struct NonConvChannelParams {
  arch::Q8_16 k;
  arch::Q8_16 b;

  /// Applies the fixed-point datapath (shared with the accelerator).
  [[nodiscard]] std::int8_t apply(std::int32_t acc) const noexcept {
    return static_cast<std::int8_t>(arch::nonconv_affine(acc, k, b));
  }

  /// The exact real-valued affine this fixed-point pair approximates.
  [[nodiscard]] float apply_float(float acc) const noexcept {
    const float y = static_cast<float>(k.to_double()) * acc +
                    static_cast<float>(b.to_double());
    return y;
  }
};

/// Per-layer Non-Conv parameter vector (one k/b pair per channel), plus the
/// float-domain values they encode (retained for error analysis).
struct NonConvParams {
  std::vector<NonConvChannelParams> channels;
  std::vector<float> k_float;  ///< pre-encoding real k values
  std::vector<float> b_float;  ///< pre-encoding real b values

  [[nodiscard]] std::size_t channel_count() const noexcept {
    return channels.size();
  }
};

/// Folds (input scale, weight scale, BN, output scale) into per-channel
/// Non-Conv parameters. Throws PreconditionError if any k or b falls outside
/// the Q8.16 range - the paper chose 8 integer bits precisely so this never
/// happens for realistic networks, and we keep it a hard error so violations
/// are visible.
[[nodiscard]] NonConvParams fold_nonconv(QuantScale input_scale,
                                         QuantScale weight_scale,
                                         const BatchNormParams& bn,
                                         QuantScale output_scale);

/// Applies a folded Non-Conv stage to a whole accumulator tensor
/// ([N][M][C], channel-last), producing the next stage's int8 activations.
[[nodiscard]] Int8Tensor apply_nonconv(const Int32Tensor& acc,
                                       const NonConvParams& params);

/// Reference float computation of the same stage (dequant + BN + ReLU +
/// requant, no fixed-point rounding). Used by tolerance tests.
[[nodiscard]] Int8Tensor apply_nonconv_float(const Int32Tensor& acc,
                                             const NonConvParams& params);

}  // namespace edea::nn
