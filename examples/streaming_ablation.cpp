// streaming_ablation - a guided walk through the paper's central idea:
// what the direct DWC->PWC data transfer and the parallel dual engines
// buy, on one layer, with full statistics from both architectures.
//
// Both architectures are instantiated by id through core::make_backend
// (core/backend.hpp) - the same selection path sweeps, the DSE, and the
// simulation service use - so this example doubles as the smallest
// possible cross-backend experiment: one layer, two dataflows, bit-exact
// outputs, divergent measurements.
#include <iostream>
#include <memory>
#include <vector>

#include "core/backend.hpp"
#include "nn/layers.hpp"
#include "util/random.hpp"
#include "util/table.hpp"

int main() {
  using namespace edea;

  // Layer 6 of MobileNetV1: the PWC-dominated steady-state workload.
  nn::DscLayerSpec spec;
  spec.index = 6;
  spec.in_rows = 4;
  spec.in_cols = 4;
  spec.in_channels = 512;
  spec.out_channels = 512;

  Rng rng(2468);
  const nn::FloatDscLayer fl = nn::make_random_float_layer(spec, rng);
  const std::vector<nn::QuantDscLayer> network{nn::quantize_layer(
      fl, nn::QuantScale{0.02f}, nn::QuantScale{0.03f},
      nn::QuantScale{0.03f})};
  nn::Int8Tensor input(nn::Shape{4, 4, 512});
  for (auto& v : input.storage()) {
    v = rng.bernoulli(0.5) ? std::int8_t{0}
                           : static_cast<std::int8_t>(rng.uniform_int(0, 127));
  }

  std::cout << "registered backends: " << core::known_backends_string()
            << "\n";
  const std::unique_ptr<core::AcceleratorBackend> edea_backend =
      core::make_backend("edea");
  const std::unique_ptr<core::AcceleratorBackend> serial_backend =
      core::make_backend("serialized");
  const core::NetworkRunResult fast_net =
      edea_backend->run_network(network, input);
  const core::NetworkRunResult slow_net =
      serial_backend->run_network(network, input);
  const core::LayerRunResult& fast = fast_net.layers.front();
  const core::LayerRunResult& slow = slow_net.layers.front();

  std::cout << "=== " << spec.to_string() << " ===\n\n";
  const bool bit_exact =
      fast_net.output.storage() == slow_net.output.storage();
  std::cout << "both architectures produce bit-identical int8 outputs: "
            << (bit_exact ? "YES" : "NO !!") << "\n\n";

  TextTable t({"metric", "EDEA (dual engine)", "serialized baseline"});
  t.add_row({"total cycles", TextTable::num(fast.timing.total_cycles),
             TextTable::num(slow.timing.total_cycles)});
  t.add_row({"DWC-active cycles", TextTable::num(fast.timing.dwc_active_cycles),
             TextTable::num(slow.timing.dwc_active_cycles)});
  t.add_row({"PWC-active cycles", TextTable::num(fast.timing.pwc_active_cycles),
             TextTable::num(slow.timing.pwc_active_cycles)});
  t.add_row({"  engine overlap", "DWC runs in the PWC shadow",
             "phases strictly serial"});
  t.add_row({"ext. activation accesses",
             TextTable::num(fast.external.accesses(
                 arch::TrafficClass::kActivation)),
             TextTable::num(slow.external.accesses(
                 arch::TrafficClass::kActivation))});
  t.add_row({"intermediate buffer traffic",
             TextTable::num(fast.buffers.intermediate.total_accesses()),
             "n/a (round-trips through external memory)"});
  t.render(std::cout);

  const double speedup =
      static_cast<double>(slow.timing.total_cycles) /
      static_cast<double>(fast.timing.total_cycles);
  const double traffic_saving =
      1.0 - static_cast<double>(fast.external.accesses(
                arch::TrafficClass::kActivation)) /
                static_cast<double>(slow.external.accesses(
                    arch::TrafficClass::kActivation));

  std::cout << "\nEDEA speedup: " << TextTable::num(speedup, 3)
            << "x, external activation traffic saved: "
            << TextTable::percent(traffic_saving, 1)
            << "\n(the intermediate tile moves through the 64-byte "
               "double-buffered on-chip intermediate buffer instead of "
               "external memory; the DWC engine works in the PWC engine's "
               "shadow, cf. Fig. 7)\n";
  return bit_exact ? 0 : 1;
}
