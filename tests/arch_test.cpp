// Tests for the hardware primitives (src/arch): SRAM buffers, external
// memory traffic accounting, MAC lanes and adder trees.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <limits>
#include <vector>

#include "arch/counters.hpp"
#include "arch/ext_memory.hpp"
#include "arch/pe.hpp"
#include "arch/sram.hpp"
#include "util/check.hpp"

namespace edea::arch {
namespace {

// ----------------------------------------------------------------- SRAM ---

/// One-element run helpers: the shape the engines' scalar accesses took
/// before every staging loop moved whole runs.
template <typename T>
void store(SramBuffer& buf, std::int64_t index, T value) {
  buf.write_run<T>(index, &value, 1);
}

template <typename T>
T load(SramBuffer& buf, std::int64_t index) {
  T value{};
  buf.read_run<T>(index, &value, 1);
  return value;
}

TEST(SramBuffer, StoreLoadRoundTrip) {
  SramBuffer buf("test", 64);
  store<std::int8_t>(buf, 3, -7);
  EXPECT_EQ(load<std::int8_t>(buf, 3), -7);
  store<std::int32_t>(buf, 4, 123456);
  EXPECT_EQ(load<std::int32_t>(buf, 4), 123456);
}

TEST(SramBuffer, CountsAccesses) {
  SramBuffer buf("test", 64);
  store<std::int8_t>(buf, 0, 1);
  store<std::int8_t>(buf, 1, 2);
  (void)load<std::int8_t>(buf, 0);
  EXPECT_EQ(buf.counter().writes, 2);
  EXPECT_EQ(buf.counter().reads, 1);
  EXPECT_EQ(buf.counter().write_bytes, 2);
  EXPECT_EQ(buf.counter().read_bytes, 1);
  buf.reset_counters();
  EXPECT_EQ(buf.counter().total_accesses(), 0);
}

TEST(SramBuffer, CapacityIsEnforced) {
  SramBuffer buf("tiny", 8);
  EXPECT_NO_THROW(store<std::int32_t>(buf, 1, 42));  // bytes 4..7
  EXPECT_THROW(store<std::int8_t>(buf, 8, 1), ResourceError);
  EXPECT_THROW(store<std::int32_t>(buf, 2, 1), ResourceError);
  std::int8_t dst = 0;
  EXPECT_THROW(buf.read(-1, &dst, 1), ResourceError);
}

TEST(SramBuffer, ErrorMessageNamesTheBuffer) {
  SramBuffer buf("dwc_ifmap", 4);
  try {
    store<std::int8_t>(buf, 100, 1);
    FAIL() << "expected ResourceError";
  } catch (const ResourceError& e) {
    EXPECT_NE(std::string(e.what()).find("dwc_ifmap"), std::string::npos);
  }
}

TEST(SramBuffer, ClearContentsPreservesCounters) {
  SramBuffer buf("test", 16);
  store<std::int8_t>(buf, 0, 9);
  buf.clear_contents();
  EXPECT_EQ(load<std::int8_t>(buf, 0), 0);
  EXPECT_EQ(buf.counter().writes, 1);  // clear is not a counted write
}

/// A run of n elements must leave the counter exactly where n
/// single-element accesses leave it - the engines' counters depend on it.
template <typename T>
void expect_run_counts_like_single_elements(SramBuffer& runs,
                                            SramBuffer& singles) {
  std::vector<T> src(7);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<T>(static_cast<int>(i) * 37 - 100);
  }
  const auto n = static_cast<std::int64_t>(src.size());
  runs.write_run<T>(2, src.data(), n);
  std::vector<T> back(src.size());
  runs.read_run<T>(2, back.data(), n);
  EXPECT_EQ(back, src);

  for (std::int64_t i = 0; i < n; ++i) {
    store<T>(singles, 2 + i, src[static_cast<std::size_t>(i)]);
  }
  for (std::int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(load<T>(singles, 2 + i), src[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(runs.counter(), singles.counter());
  EXPECT_EQ(runs.counter().writes, n);
  EXPECT_EQ(runs.counter().write_bytes, n * std::int64_t{sizeof(T)});
}

TEST(SramBuffer, RunCountsEqualSingleElementCountsInt8) {
  SramBuffer runs("runs", 64);
  SramBuffer singles("singles", 64);
  expect_run_counts_like_single_elements<std::int8_t>(runs, singles);
}

TEST(SramBuffer, RunCountsEqualSingleElementCountsInt32) {
  SramBuffer runs("runs", 64);
  SramBuffer singles("singles", 64);
  expect_run_counts_like_single_elements<std::int32_t>(runs, singles);
}

TEST(SramBuffer, RunCrossingCapacityThrowsNamingTheBuffer) {
  SramBuffer buf("accumulator", 16);  // four int32 slots
  const std::array<std::int32_t, 3> src{1, 2, 3};
  EXPECT_NO_THROW(buf.write_run<std::int32_t>(1, src.data(), 3));  // 1..3
  try {
    buf.write_run<std::int32_t>(2, src.data(), 3);  // slots 2..4
    FAIL() << "expected ResourceError";
  } catch (const ResourceError& e) {
    EXPECT_NE(std::string(e.what()).find("accumulator"), std::string::npos);
  }
  std::array<std::int32_t, 3> dst{};
  EXPECT_THROW(buf.read_run<std::int32_t>(2, dst.data(), 3), ResourceError);
  EXPECT_THROW(buf.read_run<std::int32_t>(-1, dst.data(), 1), ResourceError);
  EXPECT_THROW(buf.read_run<std::int32_t>(0, dst.data(), -1), ResourceError);
  // The failed accesses moved nothing and counted nothing.
  EXPECT_EQ(buf.counter().writes, 3);
  EXPECT_EQ(buf.counter().reads, 0);
}

TEST(SramBuffer, ZeroLengthRunIsANoOp) {
  SramBuffer buf("test", 8);
  store<std::int8_t>(buf, 0, 5);
  buf.write_run<std::int8_t>(0, nullptr, 0);
  buf.read_run<std::int8_t>(8, nullptr, 0);  // at the end: still in range
  EXPECT_EQ(load<std::int8_t>(buf, 0), 5);
  EXPECT_EQ(buf.counter().writes, 1);
  EXPECT_EQ(buf.counter().reads, 1);
}

TEST(SramBuffer, SpanModeRunsBehaveLikeOwningMode) {
  std::array<std::uint8_t, 32> backing{};
  SramBuffer span("span", backing.data(), 32);
  SramBuffer owning("owning", 32);
  EXPECT_FALSE(span.owns_storage());
  EXPECT_TRUE(owning.owns_storage());
  const std::array<std::int32_t, 4> src{-1, 0, 7, 1 << 20};
  for (SramBuffer* buf : {&span, &owning}) {
    buf->write_run<std::int32_t>(3, src.data(), 4);
    std::array<std::int32_t, 4> dst{};
    buf->read_run<std::int32_t>(3, dst.data(), 4);
    EXPECT_EQ(dst, src);
    EXPECT_THROW(buf->write_run<std::int32_t>(5, src.data(), 4),
                 ResourceError);
  }
  EXPECT_EQ(span.counter(), owning.counter());
  // Span mode really writes through to the provided storage.
  std::int32_t third = 0;
  std::memcpy(&third, backing.data() + 3 * 4 + 2 * 4, sizeof third);
  EXPECT_EQ(third, 7);
}

TEST(SramBuffer, AddressesNearInt64MaxAreRejectedWithoutOverflow) {
  SramBuffer buf("test", 64);
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  std::int8_t byte = 0;
  EXPECT_THROW(buf.write(kMax, &byte, 1), ResourceError);
  EXPECT_THROW(buf.read(kMax - 1, &byte, 2), ResourceError);
  EXPECT_THROW(buf.write(1, &byte, kMax), ResourceError);
  std::int32_t word = 0;
  EXPECT_THROW(buf.write_run<std::int32_t>(kMax, &word, 1), ResourceError);
  EXPECT_THROW(buf.read_run<std::int32_t>(kMax / 4, &word, 1),
               ResourceError);
  EXPECT_THROW(buf.read_run<std::int32_t>(1, &word, kMax), ResourceError);
  EXPECT_EQ(buf.counter().total_accesses(), 0);
}

TEST(SramBuffer, RejectsNonPositiveCapacity) {
  EXPECT_THROW(SramBuffer("bad", 0), PreconditionError);
  EXPECT_THROW(SramBuffer("bad", -5), PreconditionError);
}

// ------------------------------------------------------- external memory ---

TEST(ExternalMemory, SeparatesTrafficClasses) {
  ExternalMemory mem;
  mem.record_read(TrafficClass::kActivation, 100);
  mem.record_write(TrafficClass::kActivation, 50);
  mem.record_read(TrafficClass::kWeight, 30);
  mem.record_read(TrafficClass::kParameter, 7);
  EXPECT_EQ(mem.accesses(TrafficClass::kActivation), 150);
  EXPECT_EQ(mem.accesses(TrafficClass::kWeight), 30);
  EXPECT_EQ(mem.accesses(TrafficClass::kParameter), 7);
  EXPECT_EQ(mem.total_accesses(), 187);
  mem.reset();
  EXPECT_EQ(mem.total_accesses(), 0);
}

TEST(ExternalMemory, NegativeCountRejected) {
  ExternalMemory mem;
  EXPECT_THROW(mem.record_read(TrafficClass::kWeight, -1),
               PreconditionError);
}

TEST(ExternalMemory, TrafficClassNames) {
  EXPECT_EQ(traffic_class_name(TrafficClass::kActivation), "activation");
  EXPECT_EQ(traffic_class_name(TrafficClass::kWeight), "weight");
  EXPECT_EQ(traffic_class_name(TrafficClass::kParameter), "parameter");
}

// ------------------------------------------------------------- counters ---

TEST(AccessCounter, Accumulates) {
  AccessCounter a;
  a.record_read(10, 2);
  a.record_write(4);
  AccessCounter b;
  b.record_read(1);
  a += b;
  EXPECT_EQ(a.reads, 3);
  EXPECT_EQ(a.writes, 1);
  EXPECT_EQ(a.read_bytes, 11);
  EXPECT_EQ(a.total_accesses(), 4);
  EXPECT_EQ(a.total_bytes(), 15);
}

TEST(MacActivity, UtilizationAndZeroFraction) {
  MacActivity m;
  m.lane_cycles = 100;
  m.useful_macs = 80;
  m.zero_operand_macs = 20;
  EXPECT_DOUBLE_EQ(m.utilization(), 0.8);
  EXPECT_DOUBLE_EQ(m.zero_operand_fraction(), 0.25);
  MacActivity empty;
  EXPECT_DOUBLE_EQ(empty.utilization(), 0.0);
  EXPECT_DOUBLE_EQ(empty.zero_operand_fraction(), 0.0);
}

// ------------------------------------------------------------- MAC lane ---

TEST(MacLane, MultiplyAndTrack) {
  MacLane lane;
  MacActivity act;
  EXPECT_EQ(lane.multiply(3, -4, act), -12);
  EXPECT_EQ(lane.multiply(0, 100, act), 0);
  EXPECT_EQ(act.lane_cycles, 2);
  EXPECT_EQ(act.useful_macs, 2);
  EXPECT_EQ(act.zero_operand_macs, 1);  // only the zero *activation* counts
  EXPECT_EQ(lane.multiply(5, 0, act), 0);
  EXPECT_EQ(act.zero_operand_macs, 1);  // zero weight is not gated
  lane.idle(act);
  EXPECT_EQ(act.lane_cycles, 4);
  EXPECT_EQ(act.useful_macs, 3);
}

TEST(MacLane, FullInt8Range) {
  MacLane lane;
  MacActivity act;
  EXPECT_EQ(lane.multiply(-128, -128, act), 16384);
  EXPECT_EQ(lane.multiply(-128, 127, act), -16256);
  EXPECT_EQ(lane.multiply(127, 127, act), 16129);
}

// ------------------------------------------------------------ adder tree ---

TEST(AdderTree, DepthMatchesFanIn) {
  EXPECT_EQ(AdderTree(9).depth(), 4);  // DWC engine: 9-input tree
  EXPECT_EQ(AdderTree(8).depth(), 3);  // PWC engine: 8-input tree
  EXPECT_EQ(AdderTree(2).depth(), 1);
  EXPECT_EQ(AdderTree(1).depth(), 0);
}

TEST(AdderTree, SumsExactly) {
  AdderTree tree(9);
  std::array<std::int32_t, 9> products{1, -2, 3, -4, 5, -6, 7, -8, 9};
  EXPECT_EQ(tree.sum(products), 5);
}

TEST(AdderTree, MatchesNaiveSummationOnRandomData) {
  AdderTree tree(8);
  std::array<std::int32_t, 8> p{};
  std::uint32_t state = 12345;
  for (int trial = 0; trial < 200; ++trial) {
    std::int64_t naive = 0;
    for (auto& v : p) {
      state = state * 1664525u + 1013904223u;
      v = static_cast<std::int32_t>(state % 40000u) - 20000;
      naive += v;
    }
    EXPECT_EQ(tree.sum(p), static_cast<std::int32_t>(naive));
  }
}

TEST(AdderTree, WrongOperandCountThrows) {
  AdderTree tree(9);
  std::array<std::int32_t, 8> p{};
  EXPECT_THROW((void)tree.sum(p), PreconditionError);
}

TEST(AdderTree, RejectsNonPositiveFanIn) {
  EXPECT_THROW(AdderTree(0), PreconditionError);
}

}  // namespace
}  // namespace edea::arch
