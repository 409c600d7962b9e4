// Tests for the dual engines (Fig. 5): structural constants published in
// the paper and functional equivalence with the golden integer operators.
#include <gtest/gtest.h>

#include <thread>

#include "core/dwc_engine.hpp"
#include "core/pwc_engine.hpp"
#include "nn/ops.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace edea::core {
namespace {

// ------------------------------------------------ structural (Fig. 5) ---

TEST(DwcEngineStructure, PaperConstants) {
  const DwcEngine engine{EdeaConfig::paper()};
  EXPECT_EQ(engine.mac_count(), 288);         // Sec. III-B: 288 MACs
  EXPECT_EQ(engine.pe_count(), 8);            // 8 DWC PEs (one per channel)
  EXPECT_EQ(engine.adder_tree_fan_in(), 9);   // 3x3 window per tree
  EXPECT_EQ(engine.adder_tree_depth(), 4);
}

TEST(PwcEngineStructure, PaperConstants) {
  const PwcEngine engine{EdeaConfig::paper()};
  EXPECT_EQ(engine.mac_count(), 512);          // Sec. III-B: 512 MACs
  EXPECT_EQ(engine.pe_count(), 128);           // 128 PEs x 4 multipliers
  EXPECT_EQ(engine.adder_tree_fan_in(), 8);    // Td-deep dot products
  EXPECT_EQ(engine.adder_tree_depth(), 3);
  EXPECT_EQ(engine.dot_products_per_cycle(), 64);  // 2x2x16 outputs
}

TEST(EngineStructure, PwcToDwcRatios) {
  // Sec. IV: "PWC to DWC PE ratio of 1.8X (512 and 288)".
  const EdeaConfig cfg = EdeaConfig::paper();
  EXPECT_EQ(cfg.total_mac_count(), 800);  // Table III PE count
  EXPECT_NEAR(static_cast<double>(cfg.pwc_mac_count()) /
                  cfg.dwc_mac_count(),
              1.8, 0.03);
}

TEST(DwcEngineStructure, WindowExtents) {
  const EdeaConfig cfg = EdeaConfig::paper();
  EXPECT_EQ(cfg.dwc_window_extent(1), 4);  // 4x4 ifmap at stride 1
  EXPECT_EQ(cfg.dwc_window_extent(2), 5);  // 5x5 ifmap at stride 2
}

// ------------------------------------------------------ DWC functional ---

/// Runs the engine over a full small feature map and compares against the
/// golden depthwise operator.
void check_dwc_engine_matches_reference(int rows, int channels, int stride,
                                        std::uint64_t seed) {
  const EdeaConfig cfg = EdeaConfig::paper();
  DwcEngine engine(cfg);
  edea::Rng rng(seed);

  nn::Int8Tensor input(nn::Shape{rows, rows, channels});
  for (auto& v : input.storage()) {
    v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  }
  nn::Int8Tensor weights(nn::Shape{3, 3, channels});
  for (auto& v : weights.storage()) {
    v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  }

  const nn::Conv2dGeometry geom{3, stride, 1};
  const nn::Int32Tensor golden = nn::depthwise_conv2d_q(input, weights, geom);

  std::vector<std::int8_t> w(static_cast<std::size_t>(9 * channels));
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      for (int c = 0; c < channels; ++c) {
        w[static_cast<std::size_t>((i * 3 + j) * channels + c)] =
            weights(i, j, c);
      }
    }
  }
  engine.load_weights(w, channels);

  const int out_extent = geom.out_extent(rows);
  const int extent = cfg.dwc_window_extent(stride);
  for (int oy = 0; oy < out_extent; oy += cfg.tn) {
    for (int ox = 0; ox < out_extent; ox += cfg.tm) {
      DwcWindow window;
      window.extent = extent;
      window.channels = channels;
      window.values.assign(
          static_cast<std::size_t>(extent * extent * channels), 0);
      for (int r = 0; r < extent; ++r) {
        for (int c = 0; c < extent; ++c) {
          const int gr = oy * stride + r - 1;
          const int gc = ox * stride + c - 1;
          if (gr < 0 || gr >= rows || gc < 0 || gc >= rows) continue;
          for (int ch = 0; ch < channels; ++ch) {
            window.values[static_cast<std::size_t>(
                (r * extent + c) * channels + ch)] = input(gr, gc, ch);
          }
        }
      }
      const DwcStepOutput out = engine.step(window, stride);
      for (int r = 0; r < out.rows && oy + r < out_extent; ++r) {
        for (int c = 0; c < out.cols && ox + c < out_extent; ++c) {
          for (int ch = 0; ch < channels; ++ch) {
            EXPECT_EQ(out.at(r, c, ch), golden(oy + r, ox + c, ch))
                << "at (" << oy + r << "," << ox + c << "," << ch << ")";
          }
        }
      }
    }
  }
}

TEST(DwcEngine, MatchesReferenceStride1) {
  check_dwc_engine_matches_reference(8, 8, 1, 1001);
}

TEST(DwcEngine, MatchesReferenceStride2) {
  check_dwc_engine_matches_reference(8, 8, 2, 1002);
}

TEST(DwcEngine, MatchesReferencePartialSlice) {
  // Channels < Td exercises the idle-lane path.
  check_dwc_engine_matches_reference(6, 5, 1, 1003);
}

TEST(DwcEngine, FullSliceHas100PercentLaneUtilization) {
  const EdeaConfig cfg = EdeaConfig::paper();
  DwcEngine engine(cfg);
  std::vector<std::int8_t> w(static_cast<std::size_t>(9 * cfg.td), 1);
  engine.load_weights(w, cfg.td);
  DwcWindow window;
  window.extent = 4;
  window.channels = cfg.td;
  window.values.assign(static_cast<std::size_t>(16 * cfg.td), 1);
  (void)engine.step(window, 1);
  EXPECT_EQ(engine.activity().lane_cycles, 288);
  EXPECT_EQ(engine.activity().useful_macs, 288);
  EXPECT_DOUBLE_EQ(engine.activity().utilization(), 1.0);
}

TEST(DwcEngine, PartialSliceLanesIdle) {
  const EdeaConfig cfg = EdeaConfig::paper();
  DwcEngine engine(cfg);
  std::vector<std::int8_t> w(static_cast<std::size_t>(9 * 5), 1);
  engine.load_weights(w, 5);
  DwcWindow window;
  window.extent = 4;
  window.channels = 5;
  window.values.assign(static_cast<std::size_t>(16 * 5), 1);
  (void)engine.step(window, 1);
  EXPECT_EQ(engine.activity().lane_cycles, 288);
  EXPECT_EQ(engine.activity().useful_macs, 5 * 36);
  EXPECT_LT(engine.activity().utilization(), 1.0);
}

TEST(DwcEngine, TracksZeroActivations) {
  const EdeaConfig cfg = EdeaConfig::paper();
  DwcEngine engine(cfg);
  std::vector<std::int8_t> w(static_cast<std::size_t>(9 * cfg.td), 1);
  engine.load_weights(w, cfg.td);
  DwcWindow window;
  window.extent = 4;
  window.channels = cfg.td;
  window.values.assign(static_cast<std::size_t>(16 * cfg.td), 0);  // all zero
  (void)engine.step(window, 1);
  EXPECT_EQ(engine.activity().zero_operand_macs, 288);
}

TEST(DwcEngine, RequiresLoadedWeights) {
  DwcEngine engine{EdeaConfig::paper()};
  DwcWindow window;
  window.extent = 4;
  window.channels = 8;
  window.values.assign(16 * 8, 0);
  EXPECT_THROW((void)engine.step(window, 1), PreconditionError);
}

TEST(DwcEngine, RejectsWrongWindowExtent) {
  const EdeaConfig cfg = EdeaConfig::paper();
  DwcEngine engine(cfg);
  std::vector<std::int8_t> w(static_cast<std::size_t>(9 * 8), 1);
  engine.load_weights(w, 8);
  DwcWindow window;
  window.extent = 5;  // stride-2 extent ...
  window.channels = 8;
  window.values.assign(25 * 8, 0);
  EXPECT_THROW((void)engine.step(window, 1), PreconditionError);  // ... s=1
  EXPECT_NO_THROW((void)engine.step(window, 2));
}

// ------------------------------------------------------ PWC functional ---

TEST(PwcEngine, MatchesReferenceDotProducts) {
  const EdeaConfig cfg = EdeaConfig::paper();
  PwcEngine engine(cfg);
  edea::Rng rng(2001);

  PwcStepInput pin;
  pin.rows = 2;
  pin.cols = 2;
  pin.channels = 8;
  pin.kernels = 16;
  pin.activations.resize(2 * 2 * 8);
  pin.weights.resize(16 * 8);
  for (auto& v : pin.activations) {
    v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  }
  for (auto& v : pin.weights) {
    v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  }

  const PwcStepOutput out = engine.step(pin);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      for (int k = 0; k < 16; ++k) {
        std::int32_t expected = 0;
        for (int ch = 0; ch < 8; ++ch) {
          expected += static_cast<std::int32_t>(pin.act(r, c, ch)) *
                      static_cast<std::int32_t>(pin.wt(k, ch));
        }
        EXPECT_EQ(out.at(r, c, k), expected);
      }
    }
  }
}

TEST(PwcEngine, FullGroupHas100PercentLaneUtilization) {
  PwcEngine engine{EdeaConfig::paper()};
  PwcStepInput pin;
  pin.rows = 2;
  pin.cols = 2;
  pin.channels = 8;
  pin.kernels = 16;
  pin.activations.assign(2 * 2 * 8, 1);
  pin.weights.assign(16 * 8, 1);
  (void)engine.step(pin);
  EXPECT_EQ(engine.activity().lane_cycles, 512);
  EXPECT_EQ(engine.activity().useful_macs, 512);
  EXPECT_DOUBLE_EQ(engine.activity().utilization(), 1.0);
}

TEST(PwcEngine, PartialKernelGroupIdlesLanes) {
  PwcEngine engine{EdeaConfig::paper()};
  PwcStepInput pin;
  pin.rows = 2;
  pin.cols = 2;
  pin.channels = 8;
  pin.kernels = 10;  // < Tk = 16
  pin.activations.assign(2 * 2 * 8, 1);
  pin.weights.assign(10 * 8, 1);
  (void)engine.step(pin);
  EXPECT_EQ(engine.activity().lane_cycles, 512);
  EXPECT_EQ(engine.activity().useful_macs, 10 * 4 * 8);
}

TEST(PwcEngine, PartialChannelSliceIdlesLanes) {
  PwcEngine engine{EdeaConfig::paper()};
  PwcStepInput pin;
  pin.rows = 2;
  pin.cols = 2;
  pin.channels = 3;  // < Td = 8
  pin.kernels = 16;
  pin.activations.assign(2 * 2 * 3, 2);
  pin.weights.assign(16 * 3, 3);
  const PwcStepOutput out = engine.step(pin);
  EXPECT_EQ(engine.activity().lane_cycles, 512);
  EXPECT_EQ(engine.activity().useful_macs, 16 * 4 * 3);
  EXPECT_EQ(out.at(0, 0, 0), 18);  // 3 channels x (2*3)
}

TEST(PwcEngine, RejectsMalformedInput) {
  PwcEngine engine{EdeaConfig::paper()};
  PwcStepInput pin;
  pin.rows = 2;
  pin.cols = 2;
  pin.channels = 8;
  pin.kernels = 17;  // > Tk
  pin.activations.assign(2 * 2 * 8, 0);
  pin.weights.assign(17 * 8, 0);
  EXPECT_THROW((void)engine.step(pin), PreconditionError);
}

// --------------------------------------------------------- reentrancy ---
//
// Regression: DwcEngine::step used to write into a member scratch buffer
// (`products_`), so two concurrent steps on one engine silently corrupted
// each other's accumulators. Kernels now keep all scratch on the stack and
// the const step overload tallies into a caller-owned MacActivity, so one
// engine can serve many threads. Each test hammers a shared engine from
// several threads and checks every output and every activity tally against
// the serial reference - under TSan/ASan this is also a data-race probe.

TEST(DwcEngine, ConstStepIsReentrant) {
  const EdeaConfig cfg = EdeaConfig::paper();
  DwcEngine engine(cfg);
  edea::Rng rng(3001);
  std::vector<std::int8_t> w(static_cast<std::size_t>(9 * cfg.td));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  engine.load_weights(w, cfg.td);

  constexpr int kWindows = 16;
  constexpr int kRepeats = 50;
  std::vector<DwcWindow> windows(kWindows);
  for (DwcWindow& window : windows) {
    window.extent = 4;
    window.channels = cfg.td;
    window.values.resize(static_cast<std::size_t>(16 * cfg.td));
    for (auto& v : window.values) {
      v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
    }
  }

  // Serial reference: outputs and the activity of one pass over all
  // windows, through the same const overload.
  std::vector<DwcStepOutput> expected;
  arch::MacActivity serial;
  for (const DwcWindow& window : windows) {
    expected.push_back(engine.step(window, 1, 1, serial));
  }

  constexpr int kThreads = 4;
  std::vector<arch::MacActivity> sinks(kThreads);
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < kRepeats; ++rep) {
        for (int i = 0; i < kWindows; ++i) {
          const DwcStepOutput out =
              engine.step(windows[static_cast<std::size_t>(i)], 1, 1,
                          sinks[static_cast<std::size_t>(t)]);
          if (out.acc != expected[static_cast<std::size_t>(i)].acc) {
            ++mismatches[static_cast<std::size_t>(t)];
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
    // Every thread's tally equals kRepeats serial passes.
    EXPECT_EQ(sinks[static_cast<std::size_t>(t)].lane_cycles,
              serial.lane_cycles * kRepeats);
    EXPECT_EQ(sinks[static_cast<std::size_t>(t)].useful_macs,
              serial.useful_macs * kRepeats);
    EXPECT_EQ(sinks[static_cast<std::size_t>(t)].zero_operand_macs,
              serial.zero_operand_macs * kRepeats);
  }
  // The engine's own counter never moved: const steps leave no trace.
  EXPECT_EQ(engine.activity(), arch::MacActivity{});
}

TEST(PwcEngine, ConstStepIsReentrant) {
  const EdeaConfig cfg = EdeaConfig::paper();
  PwcEngine engine(cfg);
  edea::Rng rng(3002);

  constexpr int kInputs = 16;
  constexpr int kRepeats = 50;
  std::vector<PwcStepInput> inputs(kInputs);
  for (PwcStepInput& pin : inputs) {
    pin.rows = cfg.tn;
    pin.cols = cfg.tm;
    pin.channels = cfg.td;
    pin.kernels = cfg.tk;
    pin.activations.resize(
        static_cast<std::size_t>(pin.rows * pin.cols * pin.channels));
    pin.weights.resize(static_cast<std::size_t>(pin.kernels * pin.channels));
    for (auto& v : pin.activations) {
      v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
    }
    for (auto& v : pin.weights) {
      v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
    }
  }

  std::vector<PwcStepOutput> expected;
  arch::MacActivity serial;
  for (const PwcStepInput& pin : inputs) {
    expected.push_back(engine.step(pin, serial));
  }

  constexpr int kThreads = 4;
  std::vector<arch::MacActivity> sinks(kThreads);
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < kRepeats; ++rep) {
        for (int i = 0; i < kInputs; ++i) {
          const PwcStepOutput out =
              engine.step(inputs[static_cast<std::size_t>(i)],
                          sinks[static_cast<std::size_t>(t)]);
          if (out.psum != expected[static_cast<std::size_t>(i)].psum) {
            ++mismatches[static_cast<std::size_t>(t)];
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
    EXPECT_EQ(sinks[static_cast<std::size_t>(t)].useful_macs,
              serial.useful_macs * kRepeats);
    EXPECT_EQ(sinks[static_cast<std::size_t>(t)].lane_cycles,
              serial.lane_cycles * kRepeats);
  }
  EXPECT_EQ(engine.activity(), arch::MacActivity{});
}

TEST(DwcEngine, ForcedGenericConstStepIsAlsoReentrant) {
  // The generic path's old member scratch was the original bug; pin the
  // fix on that path specifically (kForceGeneric routes around the
  // specialized kernels).
  const EdeaConfig cfg = EdeaConfig::paper();
  DwcEngine engine(cfg);
  engine.set_kernel_policy(KernelPolicy::kForceGeneric);
  edea::Rng rng(3003);
  std::vector<std::int8_t> w(static_cast<std::size_t>(9 * cfg.td));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  engine.load_weights(w, cfg.td);

  DwcWindow window;
  window.extent = 4;
  window.channels = cfg.td;
  window.values.resize(static_cast<std::size_t>(16 * cfg.td));
  for (auto& v : window.values) {
    v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  }

  arch::MacActivity ref_sink;
  const DwcStepOutput reference = engine.step(window, 1, 1, ref_sink);

  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<arch::MacActivity> sinks(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 100; ++rep) {
        const DwcStepOutput out =
            engine.step(window, 1, 1, sinks[static_cast<std::size_t>(t)]);
        if (out.acc != reference.acc) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const int m : mismatches) EXPECT_EQ(m, 0);
}

// ----------------------------------------------------- scaled configs ---

TEST(EngineScaling, MacCountsScaleWithTdAndTk) {
  // Sec. III-B: "in DWC, the number of channels can be scaled, while in
  // PWC, both the number of channels and kernels can be scaled."
  EdeaConfig cfg = EdeaConfig::paper();
  cfg.td = 16;
  EXPECT_EQ(cfg.dwc_mac_count(), 576);
  EXPECT_EQ(cfg.pwc_mac_count(), 1024);
  cfg.tk = 32;
  EXPECT_EQ(cfg.pwc_mac_count(), 2048);
  const DwcEngine dwc(cfg);
  const PwcEngine pwc(cfg);
  EXPECT_EQ(dwc.mac_count(), 576);
  EXPECT_EQ(pwc.mac_count(), 2048);
}

}  // namespace
}  // namespace edea::core
