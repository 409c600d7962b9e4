// backend.hpp - the pluggable accelerator-backend seam of the simulator.
//
// The paper's central claims are comparative: EDEA's direct DWC->PWC
// transfer and parallel dual engines versus a serialized baseline that
// round-trips intermediates through external memory (Fig. 3, Table III).
// "Which dataflow" is therefore an experimental dimension, not a constant
// - every layer of the stack (SweepRunner, dse, the simulation service,
// benches) selects a backend by string id through make_backend() below
// instead of hard-instantiating EdeaAccelerator.
//
// Contract every backend must honor (tests/backend_test.cpp):
//   - run_network consumes the same nn::QuantDscNetwork workloads and
//     produces a core::NetworkRunResult,
//   - outputs are BIT-EXACT across backends: the arithmetic (engines,
//     Non-Conv math, quantization) is shared; backends may only differ in
//     *measurements* - cycles, traffic, buffer accesses - which is what
//     makes a cross-backend sweep a controlled experiment,
//   - set_tile_parallelism accepts any width >= 1 and never changes
//     results (a backend without a host-parallel implementation runs
//     serially at every width; one with it must be bit-identical).
//
// The paper compares exactly two dataflows, so the id table is fixed:
//   "edea"        the dual-engine accelerator with direct data transfer
//                 (core::EdeaAccelerator - the paper's architecture),
//   "serialized"  the comparison architecture: serial DWC-then-PWC phases
//                 with the intermediate map round-tripping through
//                 external memory (baseline::SerializedDscAccelerator).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/kernel_dispatch.hpp"
#include "core/run_result.hpp"
#include "nn/layers.hpp"
#include "nn/tensor.hpp"

namespace edea::core {

/// The backend id every consumer defaults to when none is requested.
inline constexpr std::string_view kDefaultBackendId = "edea";

/// A full-network accelerator model selectable by id. See the file comment
/// for the cross-backend contract.
class AcceleratorBackend {
 public:
  virtual ~AcceleratorBackend() = default;

  /// Runs a stack of DSC layers back to back, layer i+1 consuming layer
  /// i's output. The input is the int8 ifmap [R][C][D] of the first layer.
  [[nodiscard]] virtual NetworkRunResult run_network(
      const std::vector<nn::QuantDscLayer>& layers,
      const nn::Int8Tensor& input) = 0;

  /// Runs the same input through the network `batch` times (batch >= 1,
  /// else PreconditionError) and returns one result per image. Contract:
  /// every per-image result is bit-identical to a standalone run_network
  /// call - batching may only amortize host-side setup (memory planning,
  /// worker creation), never change arithmetic or measurements. The base
  /// implementation is the literal reference: `batch` sequential
  /// run_network calls. Backends with a planned-memory runtime override it
  /// to run all images through one arena plan (and then report the batched
  /// plan's peak via NetworkRunResult::peak_arena_bytes).
  [[nodiscard]] virtual std::vector<NetworkRunResult> run_network_batch(
      const std::vector<nn::QuantDscLayer>& layers,
      const nn::Int8Tensor& input, int batch);

  /// Host-side tile parallelism inside one layer. Every backend accepts
  /// any width >= 1 (zero/negative is a PreconditionError) and produces
  /// results bit-identical to width 1.
  virtual void set_tile_parallelism(int parallelism) = 0;
  [[nodiscard]] virtual int tile_parallelism() const noexcept = 0;

  /// Engine inner-loop kernel selection (core/kernel_dispatch.hpp):
  /// kForceGeneric pins the generic reference kernels, kAuto lets hot
  /// shapes run their specialized implementations. Either way results and
  /// every counter are bit-identical - the knob exists for A/B testing,
  /// which is why the base implementation is a no-op (a backend that runs
  /// no table-selected engine has nothing to pin).
  virtual void set_kernel_policy(KernelPolicy policy) { (void)policy; }

  /// The configuration this backend instance was built from.
  [[nodiscard]] virtual const EdeaConfig& config() const noexcept = 0;

  /// The id this backend answers to ("edea" or "serialized").
  [[nodiscard]] virtual std::string_view backend_id() const noexcept = 0;
};

/// True iff `id` names a backend. The cheap guard protocol parsers and CLI
/// validators use to reject unknown ids up front.
[[nodiscard]] bool backend_known(const std::string& id);

/// Every backend id, sorted - stable across processes, so error messages
/// and --help listings are deterministic.
[[nodiscard]] std::vector<std::string> backend_ids();

/// "edea, serialized" - the sorted id list as one human-readable
/// string, for "unknown backend" diagnostics.
[[nodiscard]] std::string known_backends_string();

/// Builds a fresh backend instance `id` with `config` for one simulation
/// job. Instances carry per-run state (SRAM, counters) and must never be
/// shared across threads. Throws PreconditionError for unknown ids (naming
/// the known ones); any configuration problem is the backend constructor's
/// to raise. Adding a dataflow is one branch here plus its id in the table.
[[nodiscard]] std::unique_ptr<AcceleratorBackend> make_backend(
    const std::string& id, const EdeaConfig& config = EdeaConfig::paper());

}  // namespace edea::core
