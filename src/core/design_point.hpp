// design_point.hpp - one simulation request as a point in the design space.
//
// The paper's design-space exploration (Sec. II) treats a run as a point:
// tile sizes, kernel, clock and dataflow over a workload. This simulator
// adds batch, dilation and depth multiplier to that point. DesignPoint is
// the one declaration of those dimensions: SweepJob, SweepOutcome and the
// protocol's Request inherit it, the service cache keys on it, and every
// per-field rule - validation, equality, hashing, the persisted encoding
// and the order cache files are written in - lives here.
//
// Field roles:
//   dilation, depth_multiplier  workload transforms: the catalog applies
//                               them to the zoo geometry before synthesis
//   config (except clock_ghz), backend, batch
//                               what the simulation runs
//   config.clock_ghz            summary only: converts cycles to GOPS
// Every field is part of the cache key.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/backend.hpp"
#include "core/config.hpp"
#include "util/binary.hpp"

namespace edea::core {

struct DesignPoint {
  EdeaConfig config = EdeaConfig::paper();
  /// Accelerator backend id (core/backend.hpp id table).
  std::string backend = std::string(kDefaultBackendId);
  /// Images run through one planned setup
  /// (AcceleratorBackend::run_network_batch); per-image results are
  /// bit-identical to `batch` standalone runs.
  int batch = 1;
  /// DWC dilation applied to every layer of the workload.
  int dilation = 1;
  /// Extra depthwise multiplier, multiplied into every layer's own.
  int depth_multiplier = 1;

  /// The point itself, for the types that inherit it: `out.point() = job;`
  /// copies exactly the dimensions of a job into an outcome.
  [[nodiscard]] DesignPoint& point() noexcept { return *this; }
  [[nodiscard]] const DesignPoint& point() const noexcept { return *this; }

  /// Throws PreconditionError unless the point can be simulated and keyed:
  /// a known backend, a finite clock (NaN is unequal to itself and would
  /// strand a cache entry), and batch, dilation and depth_multiplier >= 1.
  /// Messages start with `subject` and, when given, `'name'`. Whether the
  /// configuration can map a network is not checked: that is the
  /// simulation's verdict, and infeasible points are data.
  void validate(std::string_view subject, std::string_view name = {}) const;

  friend bool operator==(const DesignPoint&, const DesignPoint&) = default;

  /// Content hash consistent with operator== (EdeaConfig::hash, then the
  /// backend id and the counts).
  [[nodiscard]] std::uint64_t hash() const noexcept;

  /// The persisted-cache encoding (format v4): the config, the backend id
  /// as a length-prefixed string, then batch, dilation and
  /// depth_multiplier as int32. Positional: adding a field changes the
  /// bytes and needs a cache version bump.
  void encode(util::ByteWriter& w) const;
  /// Inverse of encode. The decoded point is validated, so a file naming
  /// an unknown backend or a count below 1 throws PreconditionError whose
  /// message starts with `subject` and `'name'`.
  [[nodiscard]] static DesignPoint decode(util::ByteReader& r,
                                          std::string_view subject,
                                          std::string_view name);

  /// The order save_cache writes entries in: config hash, then backend,
  /// batch, dilation, depth_multiplier. A strict weak order (points whose
  /// configs collide in hash and agree elsewhere are unordered), which is
  /// all a deterministic sort needs.
  [[nodiscard]] bool sorts_before(const DesignPoint& other) const;
};

}  // namespace edea::core
