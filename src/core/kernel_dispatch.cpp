#include "core/kernel_dispatch.hpp"

#include <vector>

#include "arch/pe.hpp"

namespace edea::core {

// ---------------------------------------------------------------------------
// Generic reference implementations.
// ---------------------------------------------------------------------------

void generic_dwc_kernel(const DwcKernelArgs& a) {
  const int k = a.kernel;
  const arch::MacLane lane;
  arch::AdderTree tree(k * k);
  // Caller-local scratch: the old engine kept this in a member
  // (`products_`), which silently made steps non-reentrant.
  std::vector<std::int32_t> products(static_cast<std::size_t>(k * k));

  for (int ch = 0; ch < a.channels; ++ch) {
    for (int ty = 0; ty < a.tn; ++ty) {
      for (int tx = 0; tx < a.tm; ++tx) {
        // One 9-input adder tree instance: 3x3 products for this output.
        for (int i = 0; i < k; ++i) {
          for (int j = 0; j < k; ++j) {
            const int r = ty * a.stride + i * a.dilation;
            const int c = tx * a.stride + j * a.dilation;
            const std::int8_t act =
                a.window[static_cast<std::size_t>((r * a.extent + c) *
                                                      a.channels +
                                                  ch)];
            const std::int8_t w = a.weights[static_cast<std::size_t>(
                (i * k + j) * a.channels + ch)];
            products[static_cast<std::size_t>(i * k + j)] =
                lane.multiply(act, w, *a.activity);
          }
        }
        a.acc[static_cast<std::size_t>((ty * a.tm + tx) * a.channels + ch)] =
            tree.sum(products);
      }
    }
  }
}

void generic_pwc_kernel(const PwcKernelArgs& a) {
  const arch::MacLane lane;
  arch::AdderTree tree(a.td);
  std::vector<std::int32_t> products(static_cast<std::size_t>(a.td));

  for (int r = 0; r < a.rows; ++r) {
    for (int c = 0; c < a.cols; ++c) {
      for (int kk = 0; kk < a.kernels; ++kk) {
        // One Td-input adder tree fed by the channel lanes.
        for (int ch = 0; ch < a.td; ++ch) {
          if (ch < a.channels) {
            const std::int8_t act = a.activations[static_cast<std::size_t>(
                (r * a.cols + c) * a.channels + ch)];
            const std::int8_t w = a.weights[static_cast<std::size_t>(
                kk * a.channels + ch)];
            products[static_cast<std::size_t>(ch)] =
                lane.multiply(act, w, *a.activity);
          } else {
            // Channel lanes beyond the slice width idle (zero product).
            lane.idle(*a.activity);
            products[static_cast<std::size_t>(ch)] = 0;
          }
        }
        a.psum[static_cast<std::size_t>((r * a.cols + c) * a.kernels + kk)] =
            tree.sum(products);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Specialized fast paths.
//
// All of them compute the same int32 accumulators as the generic path
// (integer addition is exact and order-free in these ranges: at most
// max(k*k, Td) terms of magnitude <= 2^14) and tally MacActivity in bulk:
//   lane_cycles / useful_macs: one per modeled multiply,
//   zero_operand_macs: one per multiply whose activation is zero.
// ---------------------------------------------------------------------------

namespace {

/// 3x3 DWC at dilation 1, stride a compile-time constant. The inner loop
/// walks the channel axis - the innermost dimension of both the window
/// and the weight slice - so each of the nine unrolled taps is a
/// contiguous int8 stream the compiler can vectorize. sum0/sum1/sum2 are
/// the per-kernel-row accumulators of the hand-tuned fixed-shape kernels
/// this transformation is borrowed from.
template <int Stride>
void dwc3x3_kernel(const DwcKernelArgs& a) {
  const int C = a.channels;
  const int row_pitch = a.extent * C;
  const std::int8_t* const w = a.weights;  // [3][3][C], tap (i,j) at (i*3+j)*C

  std::int64_t zeros = 0;
  for (int ty = 0; ty < a.tn; ++ty) {
    for (int tx = 0; tx < a.tm; ++tx) {
      const std::int8_t* const r0 =
          a.window + (ty * Stride * a.extent + tx * Stride) * C;
      const std::int8_t* const r1 = r0 + row_pitch;
      const std::int8_t* const r2 = r0 + 2 * row_pitch;
      std::int32_t* const out = a.acc + (ty * a.tm + tx) * C;
      for (int ch = 0; ch < C; ++ch) {
        const std::int32_t a00 = r0[ch];
        const std::int32_t a01 = r0[C + ch];
        const std::int32_t a02 = r0[2 * C + ch];
        const std::int32_t a10 = r1[ch];
        const std::int32_t a11 = r1[C + ch];
        const std::int32_t a12 = r1[2 * C + ch];
        const std::int32_t a20 = r2[ch];
        const std::int32_t a21 = r2[C + ch];
        const std::int32_t a22 = r2[2 * C + ch];
        const std::int32_t sum0 = a00 * w[ch] + a01 * w[C + ch] +
                                  a02 * w[2 * C + ch];
        const std::int32_t sum1 = a10 * w[3 * C + ch] + a11 * w[4 * C + ch] +
                                  a12 * w[5 * C + ch];
        const std::int32_t sum2 = a20 * w[6 * C + ch] + a21 * w[7 * C + ch] +
                                  a22 * w[8 * C + ch];
        out[ch] = sum0 + sum1 + sum2;
        zeros += (a00 == 0) + (a01 == 0) + (a02 == 0) + (a10 == 0) +
                 (a11 == 0) + (a12 == 0) + (a20 == 0) + (a21 == 0) +
                 (a22 == 0);
      }
    }
  }
  const std::int64_t macs = std::int64_t{9} * a.tn * a.tm * C;
  a.activity->lane_cycles += macs;
  a.activity->useful_macs += macs;
  a.activity->zero_operand_macs += zeros;
}

/// 1x1 PWC: each output is a dot product across the slice channels. The
/// channel loop is contiguous for both operands; zero-activation lanes
/// are counted once per position and scaled by the kernel-group width
/// (the generic path re-reads each activation for every kernel).
void pwc1x1_kernel(const PwcKernelArgs& a) {
  const int C = a.channels;
  const int positions = a.rows * a.cols;

  std::int64_t zero_acts = 0;
  for (int p = 0; p < positions; ++p) {
    const std::int8_t* const act = a.activations + p * C;
    std::int32_t* const out = a.psum + p * a.kernels;
    for (int kk = 0; kk < a.kernels; ++kk) {
      const std::int8_t* const w = a.weights + kk * C;
      std::int32_t sum = 0;
      for (int ch = 0; ch < C; ++ch) {
        sum += static_cast<std::int32_t>(act[ch]) *
               static_cast<std::int32_t>(w[ch]);
      }
      out[kk] = sum;
    }
    for (int ch = 0; ch < C; ++ch) zero_acts += act[ch] == 0;
  }

  const std::int64_t dots = std::int64_t{1} * positions * a.kernels;
  a.activity->useful_macs += dots * C;
  // Every dot product clocks all Td lanes; lanes in [channels, Td) idle.
  a.activity->lane_cycles += dots * a.td;
  a.activity->zero_operand_macs += zero_acts * a.kernels;
}

}  // namespace

// ---------------------------------------------------------------------------
// The table.
// ---------------------------------------------------------------------------

DwcKernelFn dwc_kernel_for(KernelPolicy policy, int kernel, int stride,
                           int dilation) noexcept {
  if (policy == KernelPolicy::kAuto && kernel == 3 && dilation == 1) {
    if (stride == 1) return &dwc3x3_kernel<1>;
    if (stride == 2) return &dwc3x3_kernel<2>;
  }
  return &generic_dwc_kernel;
}

PwcKernelFn pwc_kernel_for(KernelPolicy policy) noexcept {
  return policy == KernelPolicy::kAuto ? &pwc1x1_kernel : &generic_pwc_kernel;
}

}  // namespace edea::core
