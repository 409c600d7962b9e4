// explorer.hpp - the design space exploration of Sec. II: sweeps the four
// (loop order x Tn=Tm) groups over the six Table I tiling cases, evaluates
// PE-array size and total access count on a network, and selects the
// configuration the paper selected (La, Tn=Tm=2, Case 6).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/sweep_runner.hpp"
#include "dse/access_model.hpp"
#include "dse/loop_order.hpp"
#include "nn/layers.hpp"

namespace edea::dse {

/// One evaluated design point.
struct DesignPoint {
  ExplorationGroup group;
  TilingCase tcase;
  PeArraySize pe;
  AccessCount access;

  [[nodiscard]] std::string label() const;
};

/// Ranking policy, mirroring the paper's narrative: minimize total access
/// count; break ties toward higher compute parallelism (larger PE array),
/// which is how Case 6 (Td=8) wins over the access-equivalent Case 3
/// (Td=4) - more parallelism at equal traffic means lower latency.
struct ExplorationResult {
  std::vector<DesignPoint> points;  ///< all 24 design points, sweep order
  std::size_t best_index = 0;

  [[nodiscard]] const DesignPoint& best() const { return points[best_index]; }
};

/// Result of a simulated cross-backend sweep (see
/// Explorer::explore_backends): one outcome per requested backend, in
/// request order, plus the winner by simulated latency.
struct BackendSweepResult {
  /// outcomes[i].backend is the i-th requested id; infeasible or failing
  /// runs come back ok == false with the reason, like any sweep.
  std::vector<core::SweepOutcome> outcomes;
  /// Index of the ok outcome with the fewest total cycles (first wins
  /// ties - deterministic in the requested order). Meaningless when no
  /// outcome is ok; check outcomes[fastest_index].ok.
  std::size_t fastest_index = 0;
};

class Explorer {
 public:
  explicit Explorer(std::vector<nn::DscLayerSpec> specs);

  /// Evaluates all groups x cases on the configured network.
  ///
  /// `parallelism` selects the execution strategy: 0 (default) evaluates
  /// the design points on the shared thread pool, 1 runs strictly serially
  /// on the calling thread, n > 1 uses n pool threads. Every strategy
  /// produces the identical ExplorationResult: points are written by index
  /// in sweep order and the best-point selection runs serially after the
  /// sweep, so scheduling can never influence the outcome.
  [[nodiscard]] ExplorationResult explore(int parallelism = 0) const;

  /// The *simulated* half of the exploration: materializes the configured
  /// network (random quantized weights and input, deterministic in
  /// `seed`) and runs it through every backend in `backends` at `config`
  /// via core::SweepRunner - the dataflow dimension of the design space
  /// (EDEA vs the serialized baseline, cf. Fig. 3 / Table III). Outputs
  /// are bit-exact across backends (the backend contract), so the result
  /// isolates cycles and traffic. Pass core::backend_ids() to sweep every
  /// known dataflow. `parallelism` is the sweep-level policy, as in
  /// explore(); results are deterministic at every setting. Unknown ids
  /// and an empty backend list are PreconditionErrors.
  [[nodiscard]] BackendSweepResult explore_backends(
      const std::vector<std::string>& backends,
      const core::EdeaConfig& config = core::EdeaConfig::paper(),
      std::uint64_t seed = 1, int parallelism = 0) const;

  [[nodiscard]] const std::vector<nn::DscLayerSpec>& specs() const noexcept {
    return specs_;
  }

 private:
  std::vector<nn::DscLayerSpec> specs_;
};

}  // namespace edea::dse
