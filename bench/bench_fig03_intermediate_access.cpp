// bench_fig03_intermediate_access - regenerates Fig. 3: per-layer
// activation access count with and without eliminating the intermediate
// (DWC->PWC) external round trip, plus the reduction percentage. The paper
// reports 15.4% .. 46.9% per layer and 34.7% in total.
//
// Two views are printed:
//   1. the analytic footprint model (matches the paper's numbers exactly),
//   2. traffic measured by the cycle simulator - both dataflows run
//      through core::make_backend ("edea" vs "serialized",
//      core/backend.hpp) on the identical quantized network, which
//      includes halo re-fetches at tile borders.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "dse/access_model.hpp"
#include "nn/mobilenet.hpp"
#include "util/table.hpp"

int main() {
  using namespace edea;

  const auto spec_array = nn::mobilenet_dsc_specs();
  const std::vector<nn::DscLayerSpec> specs(spec_array.begin(),
                                            spec_array.end());

  std::cout << "=== Fig. 3 (analytic): activation access count and "
               "reduction per layer ===\n";
  {
    TextTable t({"layer", "baseline", "w/o inter. access", "reduction",
                 "paper"});
    for (const auto& spec : specs) {
      const dse::IntermediateAccessAnalysis a =
          dse::intermediate_access(spec);
      std::string paper_note;
      if (spec.index == 2) paper_note = "46.9% (max)";
      if (spec.index == 11) paper_note = "15.4% (min)";
      t.add_row({std::to_string(spec.index),
                 TextTable::num(a.baseline_total()),
                 TextTable::num(a.streaming_total()),
                 TextTable::percent(a.reduction(), 1), paper_note});
    }
    const dse::IntermediateAccessTotals totals =
        dse::intermediate_access_totals(specs);
    t.add_row({"total", TextTable::num(totals.baseline),
               TextTable::num(totals.streaming),
               TextTable::percent(totals.reduction(), 1), "34.7%"});
    t.render(std::cout);
  }

  std::cout << "\n=== Fig. 3 (simulated): external activation traffic, "
               "EDEA vs serialized baseline ===\n";
  {
    // Both dataflows run through the one make_backend path on the identical
    // quantized network; the baseline chains its own layer outputs inside
    // run_network, so per-layer rows align index for index.
    const bench::MobileNetRun& run = bench::run_mobilenet_on_backend("edea");
    const bench::MobileNetRun& base_run =
        bench::run_mobilenet_on_backend("serialized");

    TextTable t({"layer", "EDEA ext. act", "baseline ext. act", "reduction"});
    std::int64_t edea_total = 0, base_total = 0;
    for (std::size_t i = 0; i < run.result.layers.size(); ++i) {
      const auto& fast = run.result.layers[i];
      const auto& base = base_run.result.layers[i];
      const auto fast_act =
          fast.external.accesses(arch::TrafficClass::kActivation);
      const auto base_act =
          base.external.accesses(arch::TrafficClass::kActivation);
      edea_total += fast_act;
      base_total += base_act;
      t.add_row({std::to_string(i), TextTable::num(fast_act),
                 TextTable::num(base_act),
                 TextTable::percent(1.0 - static_cast<double>(fast_act) /
                                              static_cast<double>(base_act),
                                    1)});
    }
    t.add_row({"total", TextTable::num(edea_total),
               TextTable::num(base_total),
               TextTable::percent(1.0 - static_cast<double>(edea_total) /
                                            static_cast<double>(base_total),
                                  1)});
    t.render(std::cout);
  }

  std::cout << "\nPaper reference: reduction 15.4%..46.9% per layer, "
               "34.7% total.\n";
  return 0;
}
