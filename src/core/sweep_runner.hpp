// sweep_runner.hpp - concurrent evaluation of independent simulation jobs.
//
// A sweep is a list of (network, accelerator config) pairs - the shape of
// every design-space study in the paper (Sec. II DSE, Sec. III-B scaling)
// and of the reproduction benches. Jobs are independent by construction:
// each one gets its own EdeaAccelerator instance (the accelerator carries
// per-run SRAM and counter state and must never be shared across threads),
// while the quantized layers and input tensors are read-only and may be
// shared freely. Results come back in job order regardless of scheduling,
// so a parallel sweep is bit-identical to a serial one.
#pragma once

#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/config.hpp"
#include "core/run_result.hpp"
#include "nn/layers.hpp"
#include "nn/tensor.hpp"

namespace edea::util {
class ThreadPool;
}

namespace edea::core {

/// One simulation job: run `layers` on an accelerator built from `config`,
/// starting from `input`. The pointed-to network and tensor must outlive
/// the sweep; they are never written.
struct SweepJob {
  std::string name;
  EdeaConfig config = EdeaConfig::paper();
  const std::vector<nn::QuantDscLayer>* layers = nullptr;
  const nn::Int8Tensor* input = nullptr;
  /// Accelerator backend id (core/backend.hpp id table) this job simulates
  /// on. Empty means "the caller's default": evaluate_job resolves it to
  /// kDefaultBackendId, SweepRunner to its SweepOptions::backend. An
  /// unknown id is a PreconditionError - a typo'd backend is a caller bug,
  /// not a design point.
  std::string backend;
  /// Images to run through one planned setup
  /// (AcceleratorBackend::run_network_batch). Per-image arithmetic and
  /// timing are bit-identical to `batch` standalone runs; only the
  /// summary's peak_arena_bytes reflects the batched plan. < 1 is a
  /// PreconditionError.
  int batch = 1;
  /// Workload-transform knobs the resolver applied when materializing
  /// `layers` (see WorkloadCatalog::resolve): the DWC dilation and the
  /// extra depth multiplier. Already baked into every layer spec - carried
  /// here so outcomes can echo them and the service cache can key on them
  /// without re-deriving from the layers. < 1 is a PreconditionError.
  int dilation = 1;
  int depth_multiplier = 1;
  /// Precomputed network_fingerprint(*layers, *input), or 0 for "not
  /// computed". Hashing a workload touches every weight and input byte -
  /// hundreds of microseconds for real networks - so callers that submit
  /// the same immutable workload many times (the simulation service via
  /// WorkloadCatalog) compute it once at materialization and carry it
  /// here. Consumers must fall back to hashing when it is 0.
  std::uint64_t fingerprint = 0;
};

/// Result of one job. A job whose configuration cannot map the network
/// (ResourceError, PreconditionError, ...) reports the failure in `error`
/// instead of aborting the sweep - infeasible points are data in a DSE.
struct SweepOutcome {
  std::string name;
  EdeaConfig config;
  /// The resolved backend id this outcome was simulated on (never empty -
  /// an empty SweepJob::backend resolves before evaluation). Part of the
  /// protocol line and of the service cache key: the same workload and
  /// configuration on different dataflows are different experiments.
  std::string backend = std::string(kDefaultBackendId);
  /// The job's batch size, echoed for the protocol line (batch > 1 is a
  /// distinct cache key: its arena plan and peak differ).
  int batch = 1;
  /// The job's workload-transform knobs, echoed for the protocol line
  /// (each > 1 is a distinct cache key: the transformed network computes
  /// something else).
  int dilation = 1;
  int depth_multiplier = 1;
  bool ok = false;
  std::string error;
  NetworkRunResult result;
  /// True iff this outcome was served from a memoizing cache rather than
  /// simulated. Always false from SweepRunner itself; the simulation
  /// service (src/service) sets it on cache hits.
  bool cache_hit = false;
  /// Headline digest of `result`, captured when the outcome was produced
  /// (ok outcomes only - it stays default for failures). This is what the
  /// service protocol reports and what the persisted result cache stores.
  RunSummary summary;
  /// True when this outcome was served at summary level: `summary` (and
  /// ok/error) are authoritative but `result` is empty. Set for outcomes
  /// from the persisted summary cache of a restarted service (per-layer
  /// data does not survive restarts) and for every cache-served outcome
  /// on the service's streaming path, where copying the full result per
  /// request would dominate hit latency (see
  /// SimulationService::CompletionCallback).
  bool summary_only = false;
};

/// Execution policy of a SweepRunner.
struct SweepOptions {
  /// Worker parallelism: 0 = use the shared pool (hardware concurrency),
  /// 1 = run strictly serially on the calling thread (the reference path),
  /// n > 1 = use a dedicated pool of n threads. Negative values are a
  /// precondition violation - there is no "negative thread count" to clamp
  /// to, and silently coercing would mask caller arithmetic bugs.
  int parallelism = 0;

  /// Tile-level parallelism *inside* each job: every layer's buffer tiles
  /// are split over at most this many workers on the process-wide shared
  /// pool (see EdeaAccelerator::set_tile_parallelism). 1 (the default) is
  /// the strictly serial reference path. Unlike `parallelism` there is no
  /// 0 = auto policy: tile workers compete with sweep-level jobs for the
  /// same pool, so the per-job width must be stated explicitly - zero and
  /// negative values are a precondition violation. Results are
  /// bit-identical at every width.
  int tile_parallelism = 1;

  /// Backend id applied to jobs whose SweepJob::backend is empty - the
  /// sweep-wide default dataflow. Jobs naming their own backend override
  /// it, so one sweep can mix backends (the cross-dataflow experiment).
  std::string backend = std::string(kDefaultBackendId);

  void validate() const {
    EDEA_REQUIRE(
        parallelism >= 0,
        "parallelism must be 0 (auto), 1 (serial), or a thread count");
    EDEA_REQUIRE(tile_parallelism >= 1,
                 "tile_parallelism must be >= 1 (1 = serial tiles; there is "
                 "no auto policy at tile level)");
    EDEA_REQUIRE(backend_known(backend),
                 "unknown sweep backend '" + backend +
                     "' (known: " + known_backends_string() + ")");
  }
};

/// Runs one job on a fresh accelerator built from the job's backend id
/// through make_backend (empty resolves to kDefaultBackendId). Never
/// propagates simulation failures: an infeasible configuration
/// (ResourceError, ...) comes back with ok == false and the failure text
/// in `error`, so callers that fan jobs out (SweepRunner, the simulation
/// service) can treat infeasible points as data. Null network/input
/// pointers are still a hard PreconditionError - that is a caller bug,
/// not a design point - and so are a tile_parallelism < 1 (see
/// SweepOptions::tile_parallelism) and an unknown backend id.
[[nodiscard]] SweepOutcome evaluate_job(const SweepJob& job,
                                        int tile_parallelism = 1);

/// Order-sensitive 64-bit fingerprint of a simulation workload: the layer
/// geometries, quantized weights, activation scales, folded Non-Conv
/// parameters, and the input tensor - everything that determines a run's
/// output besides the accelerator configuration. Two workloads with equal
/// fingerprints are (up to hash collision) the same computation, which is
/// what the simulation service keys its result cache on.
[[nodiscard]] std::uint64_t network_fingerprint(
    const std::vector<nn::QuantDscLayer>& layers, const nn::Int8Tensor& input);

class SweepRunner {
 public:
  using Options = SweepOptions;

  explicit SweepRunner(Options options = Options());

  /// Evaluates every job; outcome i corresponds to jobs[i].
  [[nodiscard]] std::vector<SweepOutcome> run(
      const std::vector<SweepJob>& jobs) const;

 private:
  Options options_;
};

}  // namespace edea::core
