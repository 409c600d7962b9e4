// bench_table3_comparison - regenerates Table III: comparison with
// state-of-the-art works, including precision and technology/voltage
// normalization, plus the advantage multipliers the paper quotes. The
// "This Work (simulated)" row is derived live from the cycle simulator
// and the calibrated power/area models, and a closing section pits the
// two in-tree dataflows ("edea" vs "serialized", both built by
// core::make_backend) against each other on the identical workload - the
// architectural half of the paper's comparison, isolated.
#include <iostream>

#include "bench_common.hpp"
#include "model/area_model.hpp"
#include "model/comparison.hpp"
#include "model/power_model.hpp"
#include "util/table.hpp"

int main() {
  using namespace edea;

  // Derive the simulated row.
  const bench::MobileNetRun& run = bench::run_mobilenet_on_accelerator();
  const model::PowerModel pm = model::PowerModel::paper_calibrated();
  const auto points = model::paper_calibrated_operating_points();

  model::SimulatedThisWork sim;
  sim.pe_count = core::EdeaConfig::paper().total_mac_count();
  sim.area_mm2 = model::AreaModel::paper().estimate_mm2(
      core::EdeaConfig::paper());
  double e_total = 0.0, t_total = 0.0;
  double peak_eff = 0.0, peak_tp = 0.0;
  for (const auto& r : run.result.layers) {
    const auto i = static_cast<std::size_t>(r.spec.index);
    const double p = pm.power_mw(points[i]);
    const double t_ns = r.time_ns(1.0);
    e_total += p * t_ns;
    t_total += t_ns;
    const double eff = model::PowerModel::efficiency_tops_w(
        r.spec.total_ops(), t_ns, p);
    if (eff > peak_eff) {
      peak_eff = eff;
      peak_tp = r.throughput_gops(1.0);
    }
  }
  sim.avg_power_mw = e_total / t_total;
  sim.peak_energy_eff_tops_w = peak_eff;
  sim.peak_throughput_gops = peak_tp;

  const auto table = model::build_comparison_table(sim);

  std::cout << "=== Table III: comparison with state-of-the-art works ===\n";
  TextTable t({"work", "tech", "bits", "V", "PEs", "conv", "P (mW)",
               "f (MHz)", "area", "GOPS", "TOPS/W", "GOPS/mm2"});
  for (const auto& e : table) {
    t.add_row({e.label, std::to_string(e.technology_nm),
               std::to_string(e.precision_bits),
               TextTable::num(e.voltage_v, 2), std::to_string(e.pe_count),
               e.conv_type, TextTable::num(e.power_mw, 1),
               TextTable::num(e.frequency_mhz, 0),
               TextTable::num(e.area_mm2, 3),
               TextTable::num(e.throughput_gops, 1),
               TextTable::num(e.energy_eff_tops_w, 2),
               TextTable::num(e.area_eff_gops_mm2, 1)});
  }
  t.render(std::cout);

  std::cout << "\n=== normalized to 22 nm / 0.8 V / 8 bit ===\n";
  TextTable n({"work", "TOPS/W (ours)", "TOPS/W (paper's [19])",
               "GOPS/mm2 (ours)", "GOPS/mm2 (paper's [19])"});
  for (const auto& e : table) {
    n.add_row({e.label, TextTable::num(e.norm_energy_eff, 2),
               TextTable::num(e.paper_norm_energy_eff, 2),
               TextTable::num(e.norm_area_eff, 1),
               TextTable::num(e.paper_norm_area_eff, 1)});
  }
  n.render(std::cout);

  std::cout << "\n=== advantage of EDEA (paper row) over each work ===\n";
  TextTable a({"versus", "raw energy", "normalized energy",
               "normalized area"});
  for (const auto& f : model::advantage_factors(table, 5)) {
    a.add_row({f.versus, TextTable::num(f.raw_energy, 2) + "x",
               TextTable::num(f.normalized_energy, 2) + "x",
               TextTable::num(f.normalized_area, 2) + "x"});
  }
  a.render(std::cout);
  std::cout << "paper quotes: 14.6x/9.87x/2.72x/2.65x raw and "
               "1.74x/3.11x/1.37x/2.65x normalized energy efficiency; "
               "6.29x/7.79x/6.58x/3.23x normalized area efficiency.\n";

  // --- dataflow ablation row: EDEA vs the serialized baseline, both
  // built by core::make_backend on the identical network ---------------
  const bench::MobileNetRun& slow = bench::run_mobilenet_on_backend(
      "serialized");
  std::int64_t fast_cycles = 0, slow_cycles = 0;
  std::int64_t fast_ext = 0, slow_ext = 0;
  for (std::size_t i = 0; i < run.result.layers.size(); ++i) {
    fast_cycles += run.result.layers[i].timing.total_cycles;
    slow_cycles += slow.result.layers[i].timing.total_cycles;
    fast_ext += run.result.layers[i].external.total_accesses();
    slow_ext += slow.result.layers[i].external.total_accesses();
  }
  std::cout << "\n=== simulated dataflow ablation (identical workload, "
               "bit-exact outputs) ===\n";
  TextTable d({"backend", "cycles", "GOPS @1GHz", "ext. accesses"});
  d.add_row({"edea", TextTable::num(fast_cycles),
             TextTable::num(run.result.average_throughput_gops(1.0), 2),
             TextTable::num(fast_ext)});
  d.add_row({"serialized", TextTable::num(slow_cycles),
             TextTable::num(slow.result.average_throughput_gops(1.0), 2),
             TextTable::num(slow_ext)});
  d.render(std::cout);
  std::cout << "EDEA speedup over the serialized dataflow: "
            << TextTable::num(static_cast<double>(slow_cycles) /
                                  static_cast<double>(fast_cycles),
                              3)
            << "x at "
            << TextTable::percent(1.0 - static_cast<double>(fast_ext) /
                                            static_cast<double>(slow_ext),
                                  1)
            << " less external-memory traffic\n";
  return 0;
}
