#include "core/pwc_engine.hpp"

#include "util/check.hpp"

namespace edea::core {

PwcEngine::PwcEngine(const EdeaConfig& config)
    : config_(config), tree_(config.td) {
  config_.validate();
}

void PwcEngine::run_step(const PwcStepInput& input,
                         arch::MacActivity& activity,
                         PwcStepOutput& out) const {
  EDEA_REQUIRE(input.rows == config_.tn && input.cols == config_.tm,
               "PWC step tile must be Tn x Tm");
  EDEA_REQUIRE(input.channels > 0 && input.channels <= config_.td,
               "PWC slice channel count must be in (0, Td]");
  EDEA_REQUIRE(input.kernels > 0 && input.kernels <= config_.tk,
               "PWC kernel-group size must be in (0, Tk]");
  EDEA_REQUIRE(input.activations.size() ==
                   static_cast<std::size_t>(input.rows * input.cols *
                                            input.channels),
               "PWC activation block size mismatch");
  EDEA_REQUIRE(input.weights.size() == static_cast<std::size_t>(
                                           input.kernels * input.channels),
               "PWC weight block size mismatch");

  out.rows = input.rows;
  out.cols = input.cols;
  out.kernels = input.kernels;
  out.psum.assign(static_cast<std::size_t>(out.rows * out.cols * out.kernels),
                  0);

  PwcKernelArgs args;
  args.activations = input.activations.data();
  args.weights = input.weights.data();
  args.rows = input.rows;
  args.cols = input.cols;
  args.channels = input.channels;
  args.kernels = input.kernels;
  args.td = config_.td;
  args.psum = out.psum.data();
  args.activity = &activity;
  pwc_kernel_for(policy_)(args);

  // Kernel lanes beyond the group width idle this cycle. Idle accounting
  // lives above the kernel boundary so every kernel sees the same contract.
  const int idle_lanes =
      (config_.tk - input.kernels) * config_.tn * config_.tm * config_.td;
  activity.lane_cycles += idle_lanes;
}

PwcStepOutput PwcEngine::step(const PwcStepInput& input) {
  PwcStepOutput out;
  step_into(input, out);
  return out;
}

void PwcEngine::step_into(const PwcStepInput& input, PwcStepOutput& out) {
  run_step(input, activity_, out);
}

PwcStepOutput PwcEngine::step(const PwcStepInput& input,
                              arch::MacActivity& activity) const {
  PwcStepOutput out;
  run_step(input, activity, out);
  return out;
}

void PwcEngine::idle_cycle() {
  activity_.lane_cycles += mac_count();
}

}  // namespace edea::core
