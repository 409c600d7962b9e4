// dse_explorer - applies the paper's design space exploration (Sec. II) to
// a user-definable DSC network. Without arguments it explores
// MobileNetV1-CIFAR10 (reproducing the paper's Case-6 choice); with
// arguments it explores a custom stack:
//
//   dse_explorer [R D K stride]...
//
// e.g.  dse_explorer 56 32 64 1 56 64 128 2   explores a two-layer stack.
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <vector>

#include "core/backend.hpp"
#include "dse/explorer.hpp"
#include "nn/mobilenet.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace edea;

  std::vector<nn::DscLayerSpec> specs;
  if (argc > 1) {
    if ((argc - 1) % 4 != 0) {
      std::cerr << "usage: " << argv[0] << " [R D K stride]...\n";
      return 2;
    }
    for (int i = 1; i + 3 < argc; i += 4) {
      nn::DscLayerSpec s;
      s.index = (i - 1) / 4;
      s.in_rows = std::atoi(argv[i]);
      s.in_cols = s.in_rows;
      s.in_channels = std::atoi(argv[i + 1]);
      s.out_channels = std::atoi(argv[i + 2]);
      s.stride = std::atoi(argv[i + 3]);
      specs.push_back(s);
      std::cout << "layer " << s.index << ": " << s.to_string() << "\n";
    }
  } else {
    const auto arr = nn::mobilenet_dsc_specs();
    specs.assign(arr.begin(), arr.end());
    std::cout << "exploring MobileNetV1-CIFAR10 (13 DSC layers)\n";
  }

  dse::Explorer explorer(specs);
  const dse::ExplorationResult result = explorer.explore();

  std::cout << "\n";
  TextTable t({"design point", "PEs", "activation", "weight", "total",
               "best"});
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const dse::DesignPoint& p = result.points[i];
    t.add_row({p.label(), TextTable::num(p.pe.total()),
               TextTable::num(p.access.activation()),
               TextTable::num(p.access.weight()),
               TextTable::num(p.access.total()),
               i == result.best_index ? "<== selected" : ""});
  }
  t.render(std::cout);

  const dse::DesignPoint& best = result.best();
  std::cout << "\nselected configuration: " << best.label() << "\n"
            << "  PE array: " << best.pe.dwc << " DWC + " << best.pe.pwc
            << " PWC multipliers\n"
            << "  (the paper selects La, Tn=Tm=2, Case6 for MobileNetV1)\n";

  // Intermediate-access analysis for the explored network (Fig. 3 logic).
  const dse::IntermediateAccessTotals totals =
      dse::intermediate_access_totals(specs);
  std::cout << "\ndirect DWC->PWC transfer would eliminate "
            << TextTable::percent(totals.reduction(), 1)
            << " of external activation accesses on this network\n";

  // The dataflow dimension: simulate the network on every known
  // backend (EDEA vs the serialized baseline) at the selected config.
  std::cout << "\n=== cross-backend sweep (simulated, seed 1) ===\n";
  const dse::BackendSweepResult backends =
      explorer.explore_backends(core::backend_ids());
  TextTable b({"backend", "cycles", "ext. accesses", "output hash",
               "fastest"});
  for (std::size_t i = 0; i < backends.outcomes.size(); ++i) {
    const core::SweepOutcome& o = backends.outcomes[i];
    if (!o.ok) {
      b.add_row({o.backend, "infeasible: " + o.error, "", "", ""});
      continue;
    }
    std::int64_t ext = 0;
    for (const auto& layer : o.result.layers) {
      ext += layer.external.total_accesses();
    }
    std::ostringstream hash;
    hash << std::hex << o.summary.output_hash;
    b.add_row({o.backend, TextTable::num(o.summary.total_cycles),
               TextTable::num(ext), "0x" + hash.str(),
               i == backends.fastest_index ? "<== fastest" : ""});
  }
  b.render(std::cout);
  std::cout << "(output hashes agree across backends - the arithmetic is "
               "shared; only cycles and traffic diverge)\n";
  return 0;
}
