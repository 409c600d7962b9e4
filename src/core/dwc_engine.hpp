// dwc_engine.hpp - the depthwise-convolution engine of Fig. 5a.
//
// Structure (paper configuration): 8 DWC PEs, one per channel of the
// current Td-slice. Each PE holds 36 multipliers - a 3x3 window for each of
// the 2x2 output positions - and four 9-input adder trees. One engine step
// consumes a (Tn-1)*s+3 square input window over Td channels plus a 3x3xTd
// kernel slice and produces a Tn x Tm x Td block of raw accumulators in a
// single cycle (the adder tree is pipelined; latency is absorbed in the
// 9-cycle initiation of Fig. 7).
//
// The arithmetic inner loop comes from the kernel table
// (core::dwc_kernel_for): hot shapes (3x3 stride-1/2 at dilation 1) run
// hand-specialized kernels, everything else the generic reference path.
// Both are bit-identical in outputs and MacActivity;
// set_kernel_policy(kForceGeneric) pins the generic path for A/B runs.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/counters.hpp"
#include "arch/pe.hpp"
#include "core/config.hpp"
#include "core/kernel_dispatch.hpp"

namespace edea::core {

/// Input window for one DWC engine step: extent x extent x channels int8
/// values, already padded (callers materialize zero padding).
struct DwcWindow {
  int extent = 0;    ///< square spatial extent ((Tn-1)*stride + kernel)
  int channels = 0;  ///< active channels in this slice (<= Td)
  std::vector<std::int8_t> values;  ///< [row][col][channel]

  [[nodiscard]] std::int8_t at(int r, int c, int ch) const noexcept {
    return values[static_cast<std::size_t>((r * extent + c) * channels + ch)];
  }
};

/// Raw DWC accumulators for one step: [Tn][Tm][channels].
struct DwcStepOutput {
  int rows = 0;
  int cols = 0;
  int channels = 0;
  std::vector<std::int32_t> acc;  ///< [row][col][channel]

  [[nodiscard]] std::int32_t at(int r, int c, int ch) const noexcept {
    return acc[static_cast<std::size_t>((r * cols + c) * channels + ch)];
  }
};

class DwcEngine {
 public:
  explicit DwcEngine(const EdeaConfig& config);

  /// Loads one kernel slice ([kh][kw][channels], channels <= Td). Retained
  /// until the next load; reused across every spatial step of a pass.
  void load_weights(const std::vector<std::int8_t>& weights, int channels);

  /// One engine cycle: computes Tn x Tm outputs for every loaded channel.
  /// `stride` and `dilation` select the window geometry ((Tn-1)*stride +
  /// (kernel-1)*dilation + 1 square): 4x4 at s=1/d=1, 5x5 at s=2/d=1,
  /// wider for dilated kernels whose taps sit `dilation` apart. The depth
  /// multiplier never reaches the engine: window builders fold it.
  [[nodiscard]] DwcStepOutput step(const DwcWindow& window, int stride,
                                   int dilation = 1);

  /// The same step, written into a caller-owned `out` whose storage is
  /// reused across calls (the accelerator's per-step loop allocates
  /// nothing). Outputs and activity are identical to step().
  void step_into(const DwcWindow& window, int stride, int dilation,
                 DwcStepOutput& out);

  /// Reentrant step: same arithmetic, but activity is tallied into the
  /// caller-supplied sink instead of the engine's own counter. Safe to call
  /// concurrently from multiple threads on one engine (each caller owns
  /// its sink; kernels keep all scratch on the stack).
  [[nodiscard]] DwcStepOutput step(const DwcWindow& window, int stride,
                                   int dilation,
                                   arch::MacActivity& activity) const;

  /// One idle cycle (engine clocked, no work) - happens while the PWC
  /// engine drains kernel groups; feeds the duty factor of the power model.
  void idle_cycle();

  /// Pins (or unpins) the generic reference kernels. Default is kAuto.
  void set_kernel_policy(KernelPolicy policy) noexcept { policy_ = policy; }
  [[nodiscard]] KernelPolicy kernel_policy() const noexcept { return policy_; }

  [[nodiscard]] const arch::MacActivity& activity() const noexcept {
    return activity_;
  }
  void reset_activity() noexcept { activity_.reset(); }

  /// Structural constants (asserted against the paper in tests).
  [[nodiscard]] int mac_count() const noexcept {
    return config_.dwc_mac_count();
  }
  [[nodiscard]] int adder_tree_fan_in() const noexcept {
    return config_.kernel * config_.kernel;
  }
  [[nodiscard]] int adder_tree_depth() const noexcept { return tree_.depth(); }
  [[nodiscard]] int pe_count() const noexcept { return config_.td; }

 private:
  void run_step(const DwcWindow& window, int stride, int dilation,
                arch::MacActivity& activity, DwcStepOutput& out) const;

  EdeaConfig config_;
  arch::AdderTree tree_;
  std::vector<std::int8_t> weights_;  ///< [kh][kw][channel]
  int weight_channels_ = 0;
  arch::MacActivity activity_;
  KernelPolicy policy_ = KernelPolicy::kAuto;
};

}  // namespace edea::core
