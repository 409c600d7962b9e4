#include "nn/layers.hpp"

#include <cmath>
#include <sstream>

#include "arch/fixed_point.hpp"
#include "util/check.hpp"

namespace edea::nn {

std::string DscLayerSpec::to_string() const {
  std::ostringstream os;
  os << "DSC" << index << " ifmap " << in_rows << "x" << in_cols << "x"
     << in_channels << " s" << stride;
  // Default-valued dimensions stay silent so pre-existing strings (and
  // everything pinned against them) are byte-identical.
  if (dilation != 1) os << " d" << dilation;
  if (depth_multiplier != 1) os << " m" << depth_multiplier;
  os << " -> " << out_rows() << "x" << out_cols() << "x" << out_channels;
  return os.str();
}

FloatTensor FloatDscLayer::forward(const FloatTensor& input) const {
  return forward(input, nullptr);
}

FloatTensor FloatDscLayer::forward(const FloatTensor& input,
                                   FloatTensor* intermediate_out) const {
  EDEA_REQUIRE(input.rank() == 3 && input.dim(2) == spec.in_channels,
               "layer input channel mismatch");
  const FloatTensor dwc_out =
      depthwise_conv2d(input, dwc_weights, spec.dwc_geometry());
  const FloatTensor intermediate = relu(batch_norm(dwc_out, bn1));
  if (intermediate_out != nullptr) *intermediate_out = intermediate;
  const FloatTensor pwc_out = pointwise_conv2d(intermediate, pwc_weights);
  return relu(batch_norm(pwc_out, bn2));
}

Int8Tensor QuantDscLayer::forward(const Int8Tensor& input) const {
  return forward(input, nullptr);
}

Int8Tensor QuantDscLayer::forward(const Int8Tensor& input,
                                  Int8Tensor* intermediate_out) const {
  EDEA_REQUIRE(input.rank() == 3 && input.dim(2) == spec.in_channels,
               "layer input channel mismatch");
  const Int32Tensor acc1 =
      depthwise_conv2d_q(input, dwc_weights, spec.dwc_geometry());
  const Int8Tensor intermediate = apply_nonconv(acc1, nonconv1);
  if (intermediate_out != nullptr) *intermediate_out = intermediate;
  const Int32Tensor acc2 = pointwise_conv2d_q(intermediate, pwc_weights);
  return apply_nonconv(acc2, nonconv2);
}

namespace {

BatchNormParams make_random_bn(int channels, Rng& rng, float beta_shift,
                               float gamma_gain) {
  BatchNormParams bn;
  const auto n = static_cast<std::size_t>(channels);
  bn.gamma.resize(n);
  bn.beta.resize(n);
  bn.mean.resize(n);
  bn.var.resize(n);
  for (std::size_t c = 0; c < n; ++c) {
    // Near-identity BN, as observed in trained networks: gamma around 1,
    // small beta/mean, variance spread around 1. beta_shift moves the
    // pre-ReLU distribution negative (controls post-ReLU sparsity);
    // gamma_gain counteracts the variance loss the shift would otherwise
    // compound through depth, keeping activation magnitudes O(1).
    bn.gamma[c] = static_cast<float>(rng.normal(gamma_gain, 0.15));
    bn.beta[c] = static_cast<float>(rng.normal(-beta_shift, 0.10));
    bn.mean[c] = static_cast<float>(rng.normal(0.0, 0.20));
    bn.var[c] = static_cast<float>(std::abs(rng.normal(1.0, 0.25)) + 0.05);
  }
  return bn;
}

void check_random_spec(const DscLayerSpec& spec) {
  EDEA_REQUIRE(spec.in_channels > 0 && spec.out_channels > 0,
               "layer channel counts must be positive");
  EDEA_REQUIRE(spec.stride == 1 || spec.stride == 2,
               "MobileNetV1 DSC layers use stride 1 or 2");
  EDEA_REQUIRE(spec.dilation >= 1, "DWC dilation must be >= 1");
  EDEA_REQUIRE(spec.depth_multiplier >= 1, "depth multiplier must be >= 1");
}

// He/Kaiming fan-in initialization keeps activation magnitudes stable
// through the (untrained) network, which matters for realistic
// quantization ranges and sparsity statistics. Each DWC output channel
// still reads a single input channel, so its fan-in stays kernel^2
// regardless of the depth multiplier; the PWC fan-in is the
// (multiplied) intermediate depth.
double dwc_weight_stddev(const DscLayerSpec& spec) {
  return std::sqrt(2.0 / static_cast<double>(spec.kernel * spec.kernel));
}

double pwc_weight_stddev(const DscLayerSpec& spec) {
  return std::sqrt(2.0 / static_cast<double>(spec.intermediate_channels()));
}

/// The BN draws that follow a random layer's weight draws.
void make_random_bns(const DscLayerSpec& spec, Rng& rng, BatchNormParams& bn1,
                     BatchNormParams& bn2) {
  // Trained MobileNets show rising post-ReLU sparsity with depth (the
  // paper's Fig. 11 reaches ~97% zeros at layer 12). The synthetic
  // substitute reproduces that trend by shifting deep layers' pre-ReLU
  // distributions negative via the BN beta (see DESIGN.md sec. 2).
  const float depth = static_cast<float>(spec.index) / 12.0f;
  const float beta_shift = 0.55f * depth;
  const float gamma_gain = 1.0f + 0.9f * depth;
  bn1 = make_random_bn(spec.intermediate_channels(), rng, beta_shift,
                       gamma_gain);
  bn2 = make_random_bn(spec.out_channels, rng, beta_shift, gamma_gain);
}

}  // namespace

FloatDscLayer make_random_float_layer(const DscLayerSpec& spec, Rng& rng) {
  check_random_spec(spec);
  FloatDscLayer layer;
  layer.spec = spec;

  // At depth_multiplier = 1 every draw below happens in the
  // pre-multiplier order, bit for bit.
  const double dwc_std = dwc_weight_stddev(spec);
  layer.dwc_weights = FloatTensor(
      Shape{spec.kernel, spec.kernel, spec.intermediate_channels()});
  for (auto& w : layer.dwc_weights.storage()) {
    w = static_cast<float>(rng.normal(0.0, dwc_std));
  }

  const double pwc_std = pwc_weight_stddev(spec);
  layer.pwc_weights =
      FloatTensor(Shape{spec.out_channels, spec.intermediate_channels()});
  for (auto& w : layer.pwc_weights.storage()) {
    w = static_cast<float>(rng.normal(0.0, pwc_std));
  }

  make_random_bns(spec, rng, layer.bn1, layer.bn2);
  return layer;
}

QuantDscLayer make_random_quant_layer(const DscLayerSpec& spec, Rng& rng,
                                      QuantScale input_scale,
                                      QuantScale intermediate_scale,
                                      QuantScale output_scale,
                                      DrawPath path) {
  check_random_spec(spec);
  QuantDscLayer q;
  q.spec = spec;
  q.input_scale = input_scale;
  q.intermediate_scale = intermediate_scale;
  q.output_scale = output_scale;
  q.dwc_weights =
      Int8Tensor(Shape{spec.kernel, spec.kernel, spec.intermediate_channels()});
  q.pwc_weights =
      Int8Tensor(Shape{spec.out_channels, spec.intermediate_channels()});

  // One bulk draw covers the DWC then the PWC normals, the order
  // make_random_float_layer draws them in.
  QuantScale dwc_w_scale;
  QuantScale pwc_w_scale;
  {
    const NormalDraw draw(rng, q.dwc_weights.size() + q.pwc_weights.size(),
                          path);
    dwc_w_scale =
        quantize_normals(draw, 0, dwc_weight_stddev(spec), q.dwc_weights);
    pwc_w_scale = quantize_normals(draw, q.dwc_weights.size(),
                                   pwc_weight_stddev(spec), q.pwc_weights);
  }

  BatchNormParams bn1;
  BatchNormParams bn2;
  make_random_bns(spec, rng, bn1, bn2);
  saturate_bn_shift(bn1, intermediate_scale);
  saturate_bn_shift(bn2, output_scale);
  q.nonconv1 = fold_nonconv(input_scale, dwc_w_scale, bn1, intermediate_scale);
  q.nonconv2 =
      fold_nonconv(intermediate_scale, pwc_w_scale, bn2, output_scale);
  return q;
}

void saturate_bn_shift(BatchNormParams& bn, QuantScale output_scale) {
  constexpr double kSaturatedOffset = 127.0;
  const double scale = static_cast<double>(output_scale.scale);
  for (std::size_t c = 0; c < bn.channels(); ++c) {
    const double b = static_cast<double>(bn.effective_shift(c)) / scale;
    const double raw =
        std::nearbyint(b * static_cast<double>(arch::Q8_16::kOne));
    if (raw >= arch::Q8_16::kMinRaw && raw <= arch::Q8_16::kMaxRaw) continue;
    const double target = std::copysign(kSaturatedOffset, b) * scale;
    bn.beta[c] = static_cast<float>(static_cast<double>(bn.beta[c]) +
                                    target -
                                    static_cast<double>(bn.effective_shift(c)));
  }
}

QuantDscLayer quantize_layer(const FloatDscLayer& layer,
                             QuantScale input_scale,
                             QuantScale intermediate_scale,
                             QuantScale output_scale) {
  QuantDscLayer q;
  q.spec = layer.spec;
  q.input_scale = input_scale;
  q.intermediate_scale = intermediate_scale;
  q.output_scale = output_scale;

  const QuantScale dwc_w_scale = choose_weight_scale(layer.dwc_weights);
  const QuantScale pwc_w_scale = choose_weight_scale(layer.pwc_weights);
  q.dwc_weights = quantize_tensor(layer.dwc_weights, dwc_w_scale);
  q.pwc_weights = quantize_tensor(layer.pwc_weights, pwc_w_scale);

  q.nonconv1 =
      fold_nonconv(input_scale, dwc_w_scale, layer.bn1, intermediate_scale);
  q.nonconv2 =
      fold_nonconv(intermediate_scale, pwc_w_scale, layer.bn2, output_scale);
  return q;
}

}  // namespace edea::nn
