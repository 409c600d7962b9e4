// accelerator.hpp - the cycle-accurate EDEA accelerator model (Fig. 4).
//
// Composition:
//   - five on-chip SRAM buffers (DWC ifmap, DWC weight, offline, PWC
//     weight, intermediate) plus the PWC partial-sum accumulator,
//   - the 288-MAC DWC engine and 512-MAC PWC engine,
//   - the 8-unit Non-Conv array between them (and on the write-back path),
//   - a tiler implementing the La dataflow with 8x8-output buffer tiles.
//
// Contract, enforced by tests:
//   1. bit-exactness: run_layer output == nn::QuantDscLayer::forward,
//   2. cycle-exactness: measured cycles == TimingModel (Eq. 1/2),
//   3. resource-exactness: no buffer access beyond modeled capacity.
//
// Tile parallelism: the buffer tiles of one layer are independent (each
// owns a disjoint output region and reads only shared immutable inputs),
// so run_layer can execute them on several host threads. Every worker
// carries a private full complement of engines, SRAM buffers, and
// counters (detail::TileWorker), processes a contiguous chunk of the tile
// list, and its measurement partial (core::LayerPartial) is merged back
// in tile order - results are bit-identical to the serial reference at
// every parallelism (tests/tile_parallel_test.cpp).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "arch/ext_memory.hpp"
#include "arch/sram.hpp"
#include "core/backend.hpp"
#include "core/config.hpp"
#include "core/dwc_engine.hpp"
#include "core/nonconv_unit.hpp"
#include "core/pwc_engine.hpp"
#include "core/run_result.hpp"
#include "core/tiler.hpp"
#include "core/timing.hpp"
#include "nn/layers.hpp"
#include "nn/mobilenet.hpp"

namespace edea::core {

namespace detail {
class TileWorker;  // per-worker engine/buffer/counter state (accelerator.cpp)
}

/// The "edea" entry of the backend table (core/backend.hpp).
class EdeaAccelerator final : public AcceleratorBackend {
 public:
  explicit EdeaAccelerator(EdeaConfig config = EdeaConfig::paper());
  ~EdeaAccelerator() override;

  EdeaAccelerator(const EdeaAccelerator&) = delete;
  EdeaAccelerator& operator=(const EdeaAccelerator&) = delete;

  /// Runs one quantized DSC layer. `input` is the int8 ifmap [R][C][D].
  [[nodiscard]] LayerRunResult run_layer(const nn::QuantDscLayer& layer,
                                         const nn::Int8Tensor& input);

  /// Runs a stack of DSC layers back to back (e.g. all of MobileNetV1).
  /// Equivalent to run_network_batch(layers, input, 1).front(): the single
  /// image runs through a planned activation arena (nn::MemoryPlanner)
  /// whose peak lands in NetworkRunResult::peak_arena_bytes.
  [[nodiscard]] NetworkRunResult run_network(
      const std::vector<nn::QuantDscLayer>& layers,
      const nn::Int8Tensor& input) override;

  /// Planned batched execution: all `batch` images share ONE activation
  /// arena plan and worker set, executing layer-major (every image runs
  /// layer i before any image runs layer i+1) so consecutive layers'
  /// activations ping-pong inside the arena. Per-image results are
  /// bit-identical to `batch` standalone run_network calls; only
  /// peak_arena_bytes reflects the batched plan.
  [[nodiscard]] std::vector<NetworkRunResult> run_network_batch(
      const std::vector<nn::QuantDscLayer>& layers,
      const nn::Int8Tensor& input, int batch) override;

  /// Attaches a pipeline trace sink; the next run_layer records its first
  /// pass (Fig. 7 diagram). Pass nullptr to detach. While a trace is
  /// attached, layers run on the serial reference path regardless of
  /// tile_parallelism - "the first pass" is only well defined in tile
  /// order on one thread.
  void set_trace(PipelineTrace* trace) noexcept { trace_ = trace; }

  /// Sets the tile-level parallelism of run_layer: 1 (the default) is the
  /// strictly serial reference path; p > 1 splits each layer's buffer
  /// tiles over at most p workers sharing util::ThreadPool::shared() (at
  /// most p-1 helper tasks are queued; the calling thread is worker 0).
  /// Results are bit-identical for every p. Zero and negative values are
  /// a PreconditionError: there is no "auto" policy at this level - tile
  /// workers compete with sweep-level jobs for the same pool, so callers
  /// must state the per-layer width explicitly.
  void set_tile_parallelism(int parallelism) override;
  [[nodiscard]] int tile_parallelism() const noexcept override {
    return tile_parallelism_;
  }

  /// Pins every worker's engines (current and future) to `policy`.
  /// Results and counters are bit-identical either way; this is the
  /// specialized-vs-generic A/B lever (tests/differential_test.cpp).
  void set_kernel_policy(KernelPolicy policy) override;

  [[nodiscard]] const EdeaConfig& config() const noexcept override {
    return config_;
  }

  [[nodiscard]] std::string_view backend_id() const noexcept override {
    return kDefaultBackendId;  // "edea"
  }

  /// Structural views of the engines (worker 0's instances; all workers
  /// are identically configured).
  [[nodiscard]] const DwcEngine& dwc_engine() const noexcept;
  [[nodiscard]] const PwcEngine& pwc_engine() const noexcept;

 private:
  /// Returns worker `index`, growing the pool as needed. Never call from
  /// inside the tile-parallel region: workers are materialized up front on
  /// the calling thread, then only indexed concurrently.
  detail::TileWorker& worker(std::size_t index);

  /// run_layer minus output allocation: executes the layer writing into
  /// `output` (shape must match the layer's ofmap; may be an arena-backed
  /// view). The returned result carries every measurement but an empty
  /// output tensor - callers own the output placement policy.
  [[nodiscard]] LayerRunResult run_layer_into(const nn::QuantDscLayer& layer,
                                              const nn::Int8Tensor& input,
                                              nn::Int8Tensor& output);

  EdeaConfig config_;
  int tile_parallelism_ = 1;
  KernelPolicy kernel_policy_ = KernelPolicy::kAuto;
  std::vector<std::unique_ptr<detail::TileWorker>> workers_;
  PipelineTrace* trace_ = nullptr;
};

}  // namespace edea::core
