// pwc_engine.hpp - the pointwise-convolution engine of Fig. 5b.
//
// Structure (paper configuration): 128 PWC PEs of 4 multipliers each
// (512 MACs). Two PEs feed one 8-input adder tree, so the engine computes
// 64 output dot products per cycle: Tn x Tm = 4 spatial positions x
// Tk = 16 kernels, each a dot product across the Td = 8 channels of the
// current slice. Partial sums across slices are accumulated by the caller
// in the accumulator buffer (the engine is combinational plus a pipeline
// register, like the silicon).
//
// The dot-product inner loop comes from the kernel table
// (core::pwc_kernel_for): a hand-specialized contiguous dot-product kernel,
// with kForceGeneric pinning the generic reference path for A/B runs.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/counters.hpp"
#include "arch/pe.hpp"
#include "core/config.hpp"
#include "core/kernel_dispatch.hpp"

namespace edea::core {

/// One PWC engine step's operands: an intermediate tile [Tn][Tm][channels]
/// and a kernel-group weight block [kernels][channels].
struct PwcStepInput {
  int rows = 0;
  int cols = 0;
  int channels = 0;  ///< active channels this slice (<= Td)
  int kernels = 0;   ///< active kernels this group (<= Tk)
  std::vector<std::int8_t> activations;  ///< [row][col][channel]
  std::vector<std::int8_t> weights;      ///< [kernel][channel]

  [[nodiscard]] std::int8_t act(int r, int c, int ch) const noexcept {
    return activations[static_cast<std::size_t>((r * cols + c) * channels +
                                                ch)];
  }
  [[nodiscard]] std::int8_t wt(int kk, int ch) const noexcept {
    return weights[static_cast<std::size_t>(kk * channels + ch)];
  }
};

/// Per-step partial sums: [row][col][kernel].
struct PwcStepOutput {
  int rows = 0;
  int cols = 0;
  int kernels = 0;
  std::vector<std::int32_t> psum;

  [[nodiscard]] std::int32_t at(int r, int c, int kk) const noexcept {
    return psum[static_cast<std::size_t>((r * cols + c) * kernels + kk)];
  }
};

class PwcEngine {
 public:
  explicit PwcEngine(const EdeaConfig& config);

  /// One engine cycle: 64 dot products over the slice channels.
  [[nodiscard]] PwcStepOutput step(const PwcStepInput& input);

  /// The same step, written into a caller-owned `out` whose storage is
  /// reused across calls (the accelerator's per-step loop allocates
  /// nothing). Outputs and activity are identical to step().
  void step_into(const PwcStepInput& input, PwcStepOutput& out);

  /// Reentrant step: activity tallies into the caller-supplied sink. Safe
  /// to call concurrently from multiple threads on one engine.
  [[nodiscard]] PwcStepOutput step(const PwcStepInput& input,
                                   arch::MacActivity& activity) const;

  /// One idle cycle (pipeline bubble during initiation).
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
    return config_.pwc_mac_count();
  }
  [[nodiscard]] int pe_count() const noexcept {
    // 4 multipliers per PE (Fig. 5b) -> 128 PEs in the paper configuration.
    return config_.pwc_mac_count() / kMulsPerPe;
  }
  [[nodiscard]] int adder_tree_fan_in() const noexcept {
    return config_.td;
  }
  [[nodiscard]] int adder_tree_depth() const noexcept { return tree_.depth(); }
  [[nodiscard]] int dot_products_per_cycle() const noexcept {
    return config_.tn * config_.tm * config_.tk;
  }

  static constexpr int kMulsPerPe = 4;

 private:
  void run_step(const PwcStepInput& input, arch::MacActivity& activity,
                PwcStepOutput& out) const;

  EdeaConfig config_;
  arch::AdderTree tree_;
  arch::MacActivity activity_;
  KernelPolicy policy_ = KernelPolicy::kAuto;
};

}  // namespace edea::core
