// bench_common.hpp - shared setup for the reproduction benches: builds the
// synthetic-weight quantized MobileNetV1, runs it through a selected
// accelerator backend (core::make_backend), and memoizes the whole
// run per (backend, seed) so the ~20 benches (and any bench that consults
// the result more than once) never redundantly re-simulate the same
// 13-layer network in one process.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/backend.hpp"
#include "nn/dataset.hpp"
#include "nn/mobilenet.hpp"

namespace edea::bench {

/// Deterministic seed used by every bench so their outputs agree.
inline constexpr std::uint64_t kBenchSeed = 20240101;

/// Tile parallelism of the memoized reference build. Tile-parallel runs
/// are bit-identical to serial (the simulator's contract, enforced by
/// tests/tile_parallel_test.cpp and CI --verify), so building the shared
/// reference with parallel tiles only shortens every bench's startup on
/// multi-core hosts - and routes all ~20 paper-number benches through
/// the tile-parallel path, which would fail their exact assertions if it
/// ever diverged. Pass 1 explicitly to force a serial-tile build.
inline constexpr int kBenchTileParallelism = 4;

struct MobileNetRun {
  std::unique_ptr<nn::FloatMobileNet> net;
  std::unique_ptr<nn::QuantMobileNet> qnet;
  core::NetworkRunResult result;
};

namespace detail {

/// Builds the network, calibrates on a small synthetic batch, quantizes,
/// and runs all 13 DSC layers on the backend with id `backend`
/// (core/backend.hpp). `tile_parallelism` splits each layer's buffer
/// tiles over that many shared-pool workers; the result is bit-identical
/// at every width (the simulator's contract, enforced by
/// tests/tile_parallel_test.cpp), so it only changes how fast the
/// reference run materializes.
inline std::unique_ptr<MobileNetRun> build_mobilenet_run(
    const std::string& backend, std::uint64_t seed,
    int tile_parallelism = kBenchTileParallelism) {
  auto out = std::make_unique<MobileNetRun>();
  out->net = std::make_unique<nn::FloatMobileNet>(seed);
  nn::SyntheticCifar data(seed ^ 0x5eed);
  std::vector<nn::FloatTensor> images;
  for (int i = 0; i < 4; ++i) images.push_back(data.sample(i).image);
  const nn::CalibrationResult cal = nn::calibrate(*out->net, images);
  out->qnet = std::make_unique<nn::QuantMobileNet>(*out->net, cal);

  std::unique_ptr<core::AcceleratorBackend> accel =
      core::make_backend(backend);
  accel->set_tile_parallelism(tile_parallelism);
  const nn::FloatTensor stem = out->net->forward_stem(images[0]);
  out->result = accel->run_network(out->qnet->blocks(),
                                   out->qnet->quantize_input(stem));
  return out;
}

}  // namespace detail

/// Returns the (immutable) memoized MobileNetV1 run for (backend, seed).
/// The first call per key simulates; later calls are lookups. Thread-safe:
/// the global lock covers only the slot lookup, so distinct keys build
/// concurrently and cache hits never wait behind another key's build.
/// `tile_parallelism` (default kBenchTileParallelism) only affects the
/// building call's wall clock, never the result (bit-identity contract),
/// so it is not part of the memo key - whichever caller builds first wins
/// and everyone shares the run.
inline const MobileNetRun& run_mobilenet_on_backend(
    const std::string& backend, std::uint64_t seed = kBenchSeed,
    int tile_parallelism = kBenchTileParallelism) {
  struct Entry {
    std::once_flag once;
    std::unique_ptr<MobileNetRun> run;
  };
  static std::mutex mutex;
  static std::map<std::pair<std::string, std::uint64_t>,
                  std::shared_ptr<Entry>>
      cache;

  std::shared_ptr<Entry> entry;
  {
    const std::lock_guard<std::mutex> lock(mutex);
    std::shared_ptr<Entry>& slot = cache[std::make_pair(backend, seed)];
    if (slot == nullptr) slot = std::make_shared<Entry>();
    entry = slot;
  }
  std::call_once(entry->once, [&entry, &backend, seed, tile_parallelism] {
    entry->run = detail::build_mobilenet_run(backend, seed, tile_parallelism);
  });
  return *entry->run;
}

/// The EDEA-backend run - what most paper-figure benches tabulate.
inline const MobileNetRun& run_mobilenet_on_accelerator(
    std::uint64_t seed = kBenchSeed,
    int tile_parallelism = kBenchTileParallelism) {
  return run_mobilenet_on_backend(std::string(core::kDefaultBackendId), seed,
                                  tile_parallelism);
}

}  // namespace edea::bench
