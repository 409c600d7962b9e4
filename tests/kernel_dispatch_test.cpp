// kernel_dispatch_test - the fixed kernel table: which shapes get a
// specialized kernel, the force-generic escape hatch, and the bit-identity
// contract every specialized kernel must honor (outputs AND MacActivity
// tallies equal to the generic reference, across full/partial slices,
// strides, and all-zero inputs).
#include "core/kernel_dispatch.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/dwc_engine.hpp"
#include "core/pwc_engine.hpp"
#include "util/random.hpp"

namespace edea::core {
namespace {

// -------------------------------------------------------------- table ---

TEST(KernelTable, HotShapesAreSpecialized) {
  constexpr KernelPolicy kAuto = KernelPolicy::kAuto;
  // Specialized: 3x3 DWC at stride 1 and 2 (one kernel each), 1x1 PWC.
  const DwcKernelFn s1 = dwc_kernel_for(kAuto, 3, 1, 1);
  const DwcKernelFn s2 = dwc_kernel_for(kAuto, 3, 2, 1);
  EXPECT_NE(s1, &generic_dwc_kernel);
  EXPECT_NE(s2, &generic_dwc_kernel);
  EXPECT_NE(s1, s2);
  EXPECT_NE(pwc_kernel_for(kAuto), &generic_pwc_kernel);
  // Generic: every other kernel extent and every dilated shape.
  EXPECT_EQ(dwc_kernel_for(kAuto, 5, 1, 1), &generic_dwc_kernel);
  EXPECT_EQ(dwc_kernel_for(kAuto, 3, 2, 2), &generic_dwc_kernel);
  EXPECT_EQ(dwc_kernel_for(kAuto, 3, 1, 2), &generic_dwc_kernel);
  // kForceGeneric pins the generic kernels even on the hot shapes.
  constexpr KernelPolicy kGeneric = KernelPolicy::kForceGeneric;
  EXPECT_EQ(dwc_kernel_for(kGeneric, 3, 1, 1), &generic_dwc_kernel);
  EXPECT_EQ(dwc_kernel_for(kGeneric, 3, 2, 1), &generic_dwc_kernel);
  EXPECT_EQ(pwc_kernel_for(kGeneric), &generic_pwc_kernel);
}

// ----------------------------------------------- engine-level routing ---

TEST(KernelTable, ForceGenericPolicyRoutesAroundSpecializations) {
  // Identical engines, one pinned generic: outputs and activity must be
  // bit-identical - that IS the escape hatch's contract.
  const EdeaConfig cfg = EdeaConfig::paper();
  DwcEngine fast(cfg);
  DwcEngine slow(cfg);
  slow.set_kernel_policy(KernelPolicy::kForceGeneric);
  EXPECT_EQ(fast.kernel_policy(), KernelPolicy::kAuto);
  EXPECT_EQ(slow.kernel_policy(), KernelPolicy::kForceGeneric);

  edea::Rng rng(4001);
  std::vector<std::int8_t> w(static_cast<std::size_t>(9 * cfg.td));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  fast.load_weights(w, cfg.td);
  slow.load_weights(w, cfg.td);

  DwcWindow window;
  window.extent = 4;
  window.channels = cfg.td;
  window.values.resize(static_cast<std::size_t>(16 * cfg.td));
  for (auto& v : window.values) {
    v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  }

  const DwcStepOutput a = fast.step(window, 1);
  const DwcStepOutput b = slow.step(window, 1);
  EXPECT_EQ(a.acc, b.acc);
  EXPECT_EQ(fast.activity(), slow.activity());
}

// ------------------------------------------------- bit-identity sweep ---
//
// The table's contract, checked per shape at the engine seam: for
// randomized operands (dense, sparse, all-zero; full and partial slices)
// the kAuto engine and a force-generic twin produce bit-equal
// accumulators and bit-equal MacActivity tallies.

void check_dwc_bit_identity(int stride, int dilation, int channels,
                            double zero_fraction, std::uint64_t seed) {
  const EdeaConfig cfg = EdeaConfig::paper();
  DwcEngine fast(cfg);
  DwcEngine slow(cfg);
  slow.set_kernel_policy(KernelPolicy::kForceGeneric);

  edea::Rng rng(seed);
  std::vector<std::int8_t> w(static_cast<std::size_t>(9 * channels));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  fast.load_weights(w, channels);
  slow.load_weights(w, channels);

  const int extent = cfg.dwc_window_extent(stride, dilation);
  for (int rep = 0; rep < 25; ++rep) {
    DwcWindow window;
    window.extent = extent;
    window.channels = channels;
    window.values.resize(
        static_cast<std::size_t>(extent * extent * channels));
    for (auto& v : window.values) {
      v = rng.uniform() < zero_fraction
              ? std::int8_t{0}
              : static_cast<std::int8_t>(rng.uniform_int(-128, 127));
    }
    const DwcStepOutput a = fast.step(window, stride, dilation);
    const DwcStepOutput b = slow.step(window, stride, dilation);
    ASSERT_EQ(a.acc, b.acc) << "stride=" << stride << " dilation=" << dilation
                            << " channels=" << channels << " rep=" << rep;
  }
  EXPECT_EQ(fast.activity(), slow.activity())
      << "stride=" << stride << " dilation=" << dilation
      << " channels=" << channels;
}

TEST(KernelDispatchBitIdentity, Dwc3x3Stride1) {
  check_dwc_bit_identity(1, 1, 8, 0.0, 5001);
}

TEST(KernelDispatchBitIdentity, Dwc3x3Stride2) {
  check_dwc_bit_identity(2, 1, 8, 0.0, 5002);
}

TEST(KernelDispatchBitIdentity, Dwc3x3PartialSlices) {
  for (int channels = 1; channels <= 7; ++channels) {
    check_dwc_bit_identity(1, 1, channels, 0.3,
                           5100 + static_cast<std::uint64_t>(channels));
    check_dwc_bit_identity(2, 1, channels, 0.3,
                           5200 + static_cast<std::uint64_t>(channels));
  }
}

TEST(KernelDispatchBitIdentity, Dwc3x3SparseAndAllZero) {
  check_dwc_bit_identity(1, 1, 8, 0.7, 5003);  // realistic post-ReLU
  check_dwc_bit_identity(1, 1, 8, 1.0, 5004);  // all-zero window
  check_dwc_bit_identity(2, 1, 8, 1.0, 5005);
}

TEST(KernelDispatchBitIdentity, DilatedShapesTakeTheGenericPathIdentically) {
  // The table has no dilation-2 entry - both engines run generic, which
  // must also be self-consistent through the table.
  check_dwc_bit_identity(1, 2, 8, 0.3, 5006);
  check_dwc_bit_identity(2, 2, 5, 0.3, 5007);
}

void check_pwc_bit_identity(int channels, int kernels, double zero_fraction,
                            std::uint64_t seed) {
  const EdeaConfig cfg = EdeaConfig::paper();
  PwcEngine fast(cfg);
  PwcEngine slow(cfg);
  slow.set_kernel_policy(KernelPolicy::kForceGeneric);

  edea::Rng rng(seed);
  for (int rep = 0; rep < 25; ++rep) {
    PwcStepInput pin;
    pin.rows = cfg.tn;
    pin.cols = cfg.tm;
    pin.channels = channels;
    pin.kernels = kernels;
    pin.activations.resize(
        static_cast<std::size_t>(pin.rows * pin.cols * channels));
    pin.weights.resize(static_cast<std::size_t>(kernels * channels));
    for (auto& v : pin.activations) {
      v = rng.uniform() < zero_fraction
              ? std::int8_t{0}
              : static_cast<std::int8_t>(rng.uniform_int(-128, 127));
    }
    for (auto& v : pin.weights) {
      v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
    }
    const PwcStepOutput a = fast.step(pin);
    const PwcStepOutput b = slow.step(pin);
    ASSERT_EQ(a.psum, b.psum) << "channels=" << channels
                              << " kernels=" << kernels << " rep=" << rep;
  }
  EXPECT_EQ(fast.activity(), slow.activity())
      << "channels=" << channels << " kernels=" << kernels;
}

TEST(KernelDispatchBitIdentity, Pwc1x1FullSlice) {
  check_pwc_bit_identity(8, 16, 0.0, 6001);
}

TEST(KernelDispatchBitIdentity, Pwc1x1PartialSlicesAndGroups) {
  for (int channels = 1; channels <= 8; channels += 2) {
    for (int kernels = 1; kernels <= 16; kernels += 5) {
      check_pwc_bit_identity(channels, kernels, 0.4,
                             6100 +
                                 static_cast<std::uint64_t>(channels * 100 +
                                                            kernels));
    }
  }
}

TEST(KernelDispatchBitIdentity, Pwc1x1SparseAndAllZero) {
  check_pwc_bit_identity(8, 16, 0.7, 6002);
  check_pwc_bit_identity(8, 16, 1.0, 6003);
  check_pwc_bit_identity(3, 10, 1.0, 6004);
}

}  // namespace
}  // namespace edea::core
