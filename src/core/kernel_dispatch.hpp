// kernel_dispatch.hpp - shape-specialized fast-path kernels for the two
// engine inner loops, selected from a fixed table with the generic path as
// fallback.
//
// The simulator's arithmetic hot path is the five nested loops of
// DwcEngine::step (ch x ty x tx x k x k) and the four of PwcEngine::step -
// fully generic, one virtual-free but heavily abstracted MAC at a time
// (MacLane call, member scratch write, AdderTree pairwise sum). For every
// sweep, DSE run, and service cache miss those loops are the wall clock.
// The silicon has exactly two datapaths - a 3x3 DWC engine and a 1x1 PWC
// engine - so the table is two functions: dwc_kernel_for() hands the hot
// 3x3 shapes a hand-specialized implementation with unrolled,
// compiler-vectorizable accumulator loops and every other shape the generic
// reference, and pwc_kernel_for() always hands out the 1x1 dot product.
//
// The contract every table entry must honor (pinned by
// tests/kernel_dispatch_test.cpp and the differential harness's
// specialized-vs-forced-generic axis):
//   1. bit-identical accumulators to the generic path. All sums are int32
//     with |product| <= 128*128 and at most a few dozen terms, so integer
//     addition is associative in range - any summation order is exact.
//   2. bit-identical MacActivity accounting: one lane_cycle and one
//     useful_mac per modeled multiply, one zero_operand_mac per multiply
//     whose activation operand is zero. Specialized kernels may tally in
//     bulk; the totals must match the generic per-multiply tallies.
// Cycle/energy/access counters live above the kernel boundary (in the
// engines and tile workers) and are untouched by kernel selection, so a
// specialized run's every counter stays bit-identical to generic.
//
// Escape hatch: KernelPolicy::kForceGeneric (per engine / accelerator,
// reachable through AcceleratorBackend::set_kernel_policy) pins the
// generic path for A/B tests and the micro-bench speedup gate.
#pragma once

#include <cstdint>

#include "arch/counters.hpp"

namespace edea::core {

/// Kernel implementation policy of an engine (or a whole accelerator):
/// kAuto takes the kernel table's entry for the shape, kForceGeneric pins
/// the generic reference path (the A/B escape hatch). Engines default to
/// kAuto.
enum class KernelPolicy : int { kAuto = 0, kForceGeneric = 1 };

/// Operands of one DWC engine step, as raw spans: everything the inner
/// loop reads and the accumulator block it writes. Kernels own no scratch
/// and touch nothing else - in particular no engine member state, so a
/// kernel invocation is reentrant by construction.
struct DwcKernelArgs {
  const std::int8_t* window = nullptr;   ///< [extent][extent][channels]
  int extent = 0;                        ///< square spatial extent
  int channels = 0;                      ///< active channels (<= Td)
  const std::int8_t* weights = nullptr;  ///< [kh][kw][channels]
  int tn = 0;                            ///< output tile rows
  int tm = 0;                            ///< output tile cols
  int kernel = 0;                        ///< kernel extent
  int stride = 0;
  int dilation = 0;
  std::int32_t* acc = nullptr;           ///< out: [tn][tm][channels]
  arch::MacActivity* activity = nullptr;
};
using DwcKernelFn = void (*)(const DwcKernelArgs&);

/// Operands of one PWC engine step. `td` is the configured adder-tree
/// fan-in: lanes for channels in [channels, td) are modeled idle, and a
/// kernel must account their lane_cycles exactly like the generic path.
struct PwcKernelArgs {
  const std::int8_t* activations = nullptr;  ///< [rows][cols][channels]
  const std::int8_t* weights = nullptr;      ///< [kernels][channels]
  int rows = 0;
  int cols = 0;
  int channels = 0;  ///< active channels (<= td)
  int kernels = 0;   ///< active kernels this group
  int td = 0;        ///< configured channel lanes per dot product
  std::int32_t* psum = nullptr;              ///< out: [rows][cols][kernels]
  arch::MacActivity* activity = nullptr;
};
using PwcKernelFn = void (*)(const PwcKernelArgs&);

/// The generic reference implementations: the exact loops the engines ran
/// before the fast paths existed (per-multiply MacLane accounting, pairwise
/// AdderTree summation) with caller-local scratch. Every shape without a
/// fast path - and every shape under kForceGeneric - runs these.
void generic_dwc_kernel(const DwcKernelArgs& args);
void generic_pwc_kernel(const PwcKernelArgs& args);

/// The DWC kernel table. Under kAuto a 3x3 kernel at dilation 1 and
/// stride 1 or 2 gets its specialized kernel; every other shape, and
/// every shape under kForceGeneric, gets generic_dwc_kernel. A new fast
/// path is one more branch here plus its bit-identity tests.
[[nodiscard]] DwcKernelFn dwc_kernel_for(KernelPolicy policy, int kernel,
                                         int stride, int dilation) noexcept;

/// The PWC kernel table: PWC is 1x1 by definition, so kAuto always gets
/// the specialized dot product and kForceGeneric generic_pwc_kernel.
[[nodiscard]] PwcKernelFn pwc_kernel_for(KernelPolicy policy) noexcept;

}  // namespace edea::core
