#include "core/sweep_runner.hpp"

#include <exception>
#include <utility>

#include "core/accelerator.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace edea::core {

SweepOutcome evaluate_job(const SweepJob& job, int tile_parallelism) {
  EDEA_REQUIRE(job.layers != nullptr && job.input != nullptr,
               "sweep job '" + job.name + "' must reference a network");
  EDEA_REQUIRE(tile_parallelism >= 1,
               "tile_parallelism must be >= 1 (1 = serial tiles)");
  job.validate("sweep job", job.name);
  SweepOutcome out;
  out.point() = job;
  out.name = job.name;
  try {
    // The backend constructor validates the configuration; an infeasible
    // point throws here or during the run, and either way is data.
    std::unique_ptr<AcceleratorBackend> accel =
        make_backend(job.backend, job.config);
    accel->set_tile_parallelism(tile_parallelism);
    std::vector<NetworkRunResult> images =
        accel->run_network_batch(*job.layers, *job.input, job.batch);
    // All images are bit-identical by the batch contract; the first one
    // stands for the run (and carries the batched plan's arena peak).
    out.result = std::move(images.front());
    out.summary = out.result.summary(job.config.clock_ghz);
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

std::uint64_t network_fingerprint(const std::vector<nn::QuantDscLayer>& layers,
                                  const nn::Int8Tensor& input) {
  util::Fnv1a64 h;
  h.pod(static_cast<std::uint64_t>(layers.size()));
  for (const nn::QuantDscLayer& layer : layers) {
    // DscLayerSpec is a packed block of ints - safe to hash wholesale.
    h.pod(layer.spec);
    h.span(layer.dwc_weights.storage());
    h.span(layer.pwc_weights.storage());
    h.pod(layer.input_scale.scale);
    h.pod(layer.intermediate_scale.scale);
    h.pod(layer.output_scale.scale);
    // The fixed-point channel parameters (raw Q8.16 pairs) are what the
    // datapath consumes; the retained float values are analysis-only and
    // deliberately excluded.
    h.span(layer.nonconv1.channels);
    h.span(layer.nonconv2.channels);
  }
  h.pod(static_cast<std::uint64_t>(input.rank()));
  for (std::size_t axis = 0; axis < input.rank(); ++axis) {
    h.pod(input.dim(axis));
  }
  h.span(input.storage());
  return h.digest();
}

SweepRunner::SweepRunner(Options options) : options_(options) {
  options_.validate();
}

std::vector<SweepOutcome> SweepRunner::run(
    const std::vector<SweepJob>& jobs) const {
  for (const SweepJob& job : jobs) {
    EDEA_REQUIRE(job.layers != nullptr && job.input != nullptr,
                 "sweep job '" + job.name + "' must reference a network");
  }

  std::vector<SweepOutcome> outcomes(jobs.size());
  // Two-level parallelism: job i may itself split each layer's tiles over
  // tile_parallelism workers (those always borrow the process-wide shared
  // pool, never this sweep's dedicated one - see docs/ARCHITECTURE.md).
  const int tile_parallelism = options_.tile_parallelism;
  util::run_indexed(
      options_.parallelism, static_cast<std::int64_t>(jobs.size()),
      [&jobs, &outcomes, tile_parallelism](std::int64_t i) {
        outcomes[static_cast<std::size_t>(i)] = evaluate_job(
            jobs[static_cast<std::size_t>(i)], tile_parallelism);
      });
  return outcomes;
}

}  // namespace edea::core
