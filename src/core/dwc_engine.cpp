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

void DwcEngine::run_step(const DwcWindow& window, int stride, int dilation,
                         arch::MacActivity& activity,
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
  dwc_kernel_for(policy_, k, stride, dilation)(args);

  // Lanes belonging to channels absent from this slice idle this cycle
  // (never happens for MobileNetV1, whose channel counts are multiples of
  // Td, but the engine is general). Idle accounting lives above the kernel
  // boundary so every kernel sees the same contract.
  const int idle_lanes =
      (config_.td - window.channels) * config_.tn * config_.tm * k * k;
  activity.lane_cycles += idle_lanes;
}

DwcStepOutput DwcEngine::step(const DwcWindow& window, int stride,
                              int dilation) {
  DwcStepOutput out;
  step_into(window, stride, dilation, out);
  return out;
}

void DwcEngine::step_into(const DwcWindow& window, int stride, int dilation,
                          DwcStepOutput& out) {
  run_step(window, stride, dilation, activity_, out);
}

DwcStepOutput DwcEngine::step(const DwcWindow& window, int stride,
                              int dilation,
                              arch::MacActivity& activity) const {
  DwcStepOutput out;
  run_step(window, stride, dilation, activity, out);
  return out;
}

void DwcEngine::idle_cycle() {
  activity_.lane_cycles += mac_count();
}

}  // namespace edea::core
