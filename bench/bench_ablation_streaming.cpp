// bench_ablation_streaming - ablation of the paper's two architectural
// choices, run layer by layer over MobileNetV1:
//   1. direct data transfer (on-chip intermediate buffer) vs external
//      round trip  -> external activation traffic,
//   2. parallel dual engines vs serialized DWC-then-PWC -> latency.
//
// Both dataflows are built by core::make_backend ("edea" vs
// "serialized", core/backend.hpp) on the identical quantized network -
// outputs are bit-exact across the two (the backend contract), so every
// difference below is purely architectural.
#include <iostream>

#include "bench_common.hpp"
#include "util/table.hpp"

int main() {
  using namespace edea;

  const bench::MobileNetRun& fast_run = bench::run_mobilenet_on_backend("edea");
  const bench::MobileNetRun& slow_run =
      bench::run_mobilenet_on_backend("serialized");

  std::cout << "=== Ablation: dual-engine streaming vs serialized "
               "round-trip ===\n";
  const bool bit_exact = fast_run.result.output.storage() ==
                         slow_run.result.output.storage();
  std::cout << "final outputs bit-identical across backends: "
            << (bit_exact ? "YES" : "NO !!") << "\n";

  TextTable t({"layer", "EDEA cycles", "serial cycles", "speedup",
               "EDEA ext act", "serial ext act", "traffic saved"});
  std::int64_t c_fast = 0, c_slow = 0, a_fast = 0, a_slow = 0;
  for (std::size_t i = 0; i < fast_run.result.layers.size(); ++i) {
    const auto& fast = fast_run.result.layers[i];
    const auto& slow = slow_run.result.layers[i];

    const auto fast_act =
        fast.external.accesses(arch::TrafficClass::kActivation);
    const auto slow_act =
        slow.external.accesses(arch::TrafficClass::kActivation);
    c_fast += fast.timing.total_cycles;
    c_slow += slow.timing.total_cycles;
    a_fast += fast_act;
    a_slow += slow_act;
    t.add_row(
        {std::to_string(i), TextTable::num(fast.timing.total_cycles),
         TextTable::num(slow.timing.total_cycles),
         TextTable::num(static_cast<double>(slow.timing.total_cycles) /
                            static_cast<double>(fast.timing.total_cycles),
                        3) +
             "x",
         TextTable::num(fast_act), TextTable::num(slow_act),
         TextTable::percent(1.0 - static_cast<double>(fast_act) /
                                      static_cast<double>(slow_act),
                            1)});
  }
  t.add_row({"total", TextTable::num(c_fast), TextTable::num(c_slow),
             TextTable::num(static_cast<double>(c_slow) /
                                static_cast<double>(c_fast),
                            3) +
                 "x",
             TextTable::num(a_fast), TextTable::num(a_slow),
             TextTable::percent(1.0 - static_cast<double>(a_fast) /
                                          static_cast<double>(a_slow),
                                1)});
  t.render(std::cout);

  std::cout << "\nBoth designs are bit-exact; the differences above are "
               "purely architectural (parallel engines hide the whole DWC "
               "phase; the intermediate buffer removes 2*N*M*D external "
               "accesses per layer, cf. Fig. 3).\n";
  return bit_exact ? 0 : 1;
}
