#include "core/dwc_engine.hpp"

#include "util/check.hpp"

namespace edea::core {

DwcEngine::DwcEngine(const EdeaConfig& config)
    : config_(config), tree_(config.kernel * config.kernel) {
  config_.validate();
}

void DwcEngine::load_weights(const std::vector<std::int8_t>& weights,
                             int channels) {
  EDEA_REQUIRE(channels > 0 && channels <= config_.td,
               "DWC weight slice channel count must be in (0, Td]");
  EDEA_REQUIRE(weights.size() == static_cast<std::size_t>(
                                     config_.kernel * config_.kernel *
                                     channels),
               "DWC weight slice size mismatch");
  weights_ = weights;
  weight_channels_ = channels;
}

KernelShapeKey DwcEngine::shape_key(int stride, int dilation,
                                    int depth_multiplier) const noexcept {
  KernelShapeKey key;
  key.family = OpFamily::kDwc;
  key.kernel = config_.kernel;
  key.stride = stride;
  key.dilation = dilation;
  key.depth_multiplier = depth_multiplier;
  return key;
}

void DwcEngine::set_kernel_policy(KernelPolicy policy) noexcept {
  policy_ = policy;
  cached_fn_ = nullptr;
}

void DwcEngine::run_step(const DwcWindow& window, int stride, int dilation,
                         DwcKernelFn fn, arch::MacActivity& activity,
                         DwcStepOutput& out) const {
  EDEA_REQUIRE(stride == 1 || stride == 2, "DWC stride must be 1 or 2");
  EDEA_REQUIRE(dilation >= 1, "DWC dilation must be >= 1");
  EDEA_REQUIRE(weight_channels_ > 0, "DWC weights not loaded");
  EDEA_REQUIRE(window.channels == weight_channels_,
               "window channel count must match loaded weights");
  EDEA_REQUIRE(window.extent == config_.dwc_window_extent(stride, dilation),
               "window extent must match stride/dilation geometry");

  const int k = config_.kernel;
  out.rows = config_.tn;
  out.cols = config_.tm;
  out.channels = window.channels;
  out.acc.assign(static_cast<std::size_t>(out.rows * out.cols * out.channels),
                 0);

  DwcKernelArgs args;
  args.window = window.values.data();
  args.extent = window.extent;
  args.channels = window.channels;
  args.weights = weights_.data();
  args.tn = config_.tn;
  args.tm = config_.tm;
  args.kernel = k;
  args.stride = stride;
  args.dilation = dilation;
  args.acc = out.acc.data();
  args.activity = &activity;
  fn(args);

  // Lanes belonging to channels absent from this slice idle this cycle
  // (never happens for MobileNetV1, whose channel counts are multiples of
  // Td, but the engine is general). Idle accounting lives above the kernel
  // boundary so every kernel sees the same contract.
  const int idle_lanes =
      (config_.td - window.channels) * config_.tn * config_.tm * k * k;
  activity.lane_cycles += idle_lanes;
}

DwcStepOutput DwcEngine::step(const DwcWindow& window, int stride,
                              int dilation, int depth_multiplier) {
  DwcStepOutput out;
  step_into(window, stride, dilation, depth_multiplier, out);
  return out;
}

void DwcEngine::step_into(const DwcWindow& window, int stride, int dilation,
                          int depth_multiplier, DwcStepOutput& out) {
  DwcKernelFn fn = &generic_dwc_kernel;
  if (policy_ != KernelPolicy::kForceGeneric) {
    const KernelShapeKey key = shape_key(stride, dilation, depth_multiplier);
    if (cached_fn_ == nullptr || !(cached_key_ == key)) {
      cached_key_ = key;
      cached_fn_ = KernelDispatch::instance().find_dwc(key);
    }
    fn = cached_fn_;
  }
  run_step(window, stride, dilation, fn, activity_, out);
}

DwcStepOutput DwcEngine::step(const DwcWindow& window, int stride,
                              int dilation, int depth_multiplier,
                              arch::MacActivity& activity) const {
  const DwcKernelFn fn =
      policy_ == KernelPolicy::kForceGeneric
          ? &generic_dwc_kernel
          : KernelDispatch::instance().find_dwc(
                shape_key(stride, dilation, depth_multiplier));
  DwcStepOutput out;
  run_step(window, stride, dilation, fn, activity, out);
  return out;
}

void DwcEngine::idle_cycle() {
  activity_.lane_cycles += mac_count();
}

}  // namespace edea::core
