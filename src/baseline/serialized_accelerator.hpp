// serialized_accelerator.hpp - the comparison architecture EDEA improves on.
//
// Two baseline behaviours from the paper's Sec. I/II narrative:
//   1. no direct transfer: the DWC output round-trips through external
//      memory (write N*M*D, read N*M*D back) - the Fig. 3 "baseline";
//   2. no parallel engines: DWC and PWC phases execute serially per
//      (tile, slice) pass, each paying its own initiation - the [6]-style
//      "separate engine without parallel operation".
//
// The arithmetic is identical to EDEA (same engines, same Non-Conv math),
// so outputs remain bit-exact; only traffic and latency differ. That makes
// the streaming/latency ablation a controlled experiment.
#pragma once

#include <cstddef>
#include <cstdint>

#include "arch/ext_memory.hpp"
#include "core/backend.hpp"
#include "core/config.hpp"
#include "core/dwc_engine.hpp"
#include "core/nonconv_unit.hpp"
#include "core/pwc_engine.hpp"
#include "core/run_result.hpp"
#include "core/tiler.hpp"
#include "nn/layers.hpp"

namespace edea::baseline {

/// Extra measurements the serialized baseline produces on top of the
/// common LayerRunResult.
struct SerializedLayerResult {
  core::LayerRunResult common;
  std::int64_t dwc_phase_cycles = 0;
  std::int64_t pwc_phase_cycles = 0;
  std::int64_t intermediate_external_writes = 0;  ///< N*M*(D*mult)
  std::int64_t intermediate_external_reads = 0;   ///< N*M*(D*mult)
};

/// The "serialized" entry of the backend table (core/backend.hpp):
/// a full-network accelerator model of the comparison architecture.
/// run_layer remains available for single-layer studies that want the
/// phase-split extras of SerializedLayerResult.
class SerializedDscAccelerator final : public core::AcceleratorBackend {
 public:
  explicit SerializedDscAccelerator(
      core::EdeaConfig config = core::EdeaConfig::paper());

  [[nodiscard]] SerializedLayerResult run_layer(
      const nn::QuantDscLayer& layer, const nn::Int8Tensor& input);

  /// Runs a stack of DSC layers back to back, chaining outputs - the
  /// promoted full-network entry point sweeps/DSE/service consume. Output
  /// tensors are bit-exact with the "edea" backend (shared arithmetic);
  /// cycles and external traffic differ as the paper predicts. The whole
  /// run is planned through nn::MemoryPlanner: the activation chain, each
  /// layer's externally round-tripped intermediate map, and the per-tile
  /// psum scratch all live at offsets of one arena, and the plan's peak
  /// lands in NetworkRunResult::peak_arena_bytes.
  [[nodiscard]] core::NetworkRunResult run_network(
      const std::vector<nn::QuantDscLayer>& layers,
      const nn::Int8Tensor& input) override;

  /// Accepted for backend-interface parity and validated (>= 1), but the
  /// serialized baseline always executes its tiles serially: its two
  /// whole-layer phases share the externally-stored intermediate map, so
  /// there is no host-parallel implementation. Results are trivially
  /// bit-identical at every accepted width, which is all the backend
  /// contract requires.
  void set_tile_parallelism(int parallelism) override;
  [[nodiscard]] int tile_parallelism() const noexcept override {
    return tile_parallelism_;
  }

  /// Pins both engines' kernel selection (the kernel-table A/B lever);
  /// results and counters are bit-identical either way.
  void set_kernel_policy(core::KernelPolicy policy) override {
    dwc_.set_kernel_policy(policy);
    pwc_.set_kernel_policy(policy);
  }

  [[nodiscard]] const core::EdeaConfig& config() const noexcept override {
    return config_;
  }

  [[nodiscard]] std::string_view backend_id() const noexcept override {
    return "serialized";
  }

 private:
  /// run_layer minus buffer ownership: executes the layer writing the
  /// ofmap into `output` and the round-tripped DWC result into
  /// `intermediate` (both shape-checked; either may be an arena-backed
  /// view), accumulating partial sums in `psum` (capacity
  /// `psum_capacity` entries, >= the tiler's max tile). The returned
  /// result carries every measurement but an empty output tensor.
  [[nodiscard]] SerializedLayerResult run_layer_into(
      const nn::QuantDscLayer& layer, const nn::Int8Tensor& input,
      nn::Int8Tensor& output, nn::Int8Tensor& intermediate,
      std::int32_t* psum, std::size_t psum_capacity);

  core::EdeaConfig config_;
  core::DwcEngine dwc_;
  core::PwcEngine pwc_;
  core::NonConvUnitArray nonconv_;
  int tile_parallelism_ = 1;
};

/// Analytic utilization model of a *unified* convolution engine ([2]-[4]):
/// one PE array sized for the PWC dataflow executes both convolution types.
/// During DWC phases only the lanes matching the depthwise pattern
/// contribute, so average utilization drops - the imbalance EDEA's dual
/// engines remove.
struct UnifiedEngineModel {
  int array_macs = 512;      ///< PE array size (PWC-shaped)
  int dwc_usable_macs = 288; ///< lanes a depthwise pass can keep busy

  /// Average lane utilization over one DSC layer (cycle-weighted).
  [[nodiscard]] double layer_utilization(const nn::DscLayerSpec& spec) const {
    const double dwc_cycles =
        static_cast<double>(spec.dwc_macs()) / dwc_usable_macs;
    const double pwc_cycles =
        static_cast<double>(spec.pwc_macs()) / array_macs;
    const double useful =
        static_cast<double>(spec.dwc_macs() + spec.pwc_macs());
    const double offered = (dwc_cycles + pwc_cycles) * array_macs;
    return offered <= 0.0 ? 0.0 : useful / offered;
  }
};

}  // namespace edea::baseline
