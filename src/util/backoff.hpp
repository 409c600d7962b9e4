// backoff.hpp - jittered exponential backoff for retry loops.
//
// Both retry paths in the repository (PipelineClient's busy retries and
// connect_socket's connect retries) compute their delay here so the policy
// is uniform and testable in one place: the nominal delay doubles per
// attempt up to a cap, and a multiplicative jitter drawn from a
// caller-owned Rng decorrelates concurrent retriers so they do not stampede
// a recovering server in lockstep. Determinism follows from the Rng: a
// seeded generator replays the exact same delay sequence.
#pragma once

#include <algorithm>
#include <cstdint>

#include "util/check.hpp"
#include "util/random.hpp"

namespace edea {

/// Shape of a jittered_backoff_ms schedule. The defaults reproduce the
/// pipelined client's busy-retry policy: delays double per attempt up to
/// base * 2^5, each scaled by uniform [0.5, 1.5) jitter.
struct BackoffOptions {
  /// Exponent cap: attempts beyond max_shift + 1 keep the capped nominal
  /// delay (base_ms * 2^max_shift) instead of growing without bound.
  int max_shift = 5;
  /// Multiplicative jitter range [jitter_min, jitter_max) applied to the
  /// nominal delay. jitter_min == jitter_max disables jitter (the Rng is
  /// still advanced exactly once, keeping delay sequences aligned).
  double jitter_min = 0.5;
  double jitter_max = 1.5;
};

/// Delay in milliseconds before retry number `attempt` (1-based: attempt 1
/// is the wait before the first retry). Draws exactly one jitter variate
/// from `rng`; the result is always >= 1 so callers can sleep on it
/// directly without a zero-delay spin. `base_ms` is the server-suggested or
/// policy base delay (>= 0; 0 still yields the 1ms floor).
[[nodiscard]] inline std::int64_t jittered_backoff_ms(
    int attempt, std::int64_t base_ms, Rng& rng,
    const BackoffOptions& options = {}) {
  EDEA_REQUIRE(attempt >= 1, "backoff attempt is 1-based");
  EDEA_REQUIRE(base_ms >= 0, "backoff base_ms must be >= 0");
  EDEA_REQUIRE(options.max_shift >= 0 && options.max_shift < 63,
               "backoff max_shift out of range");
  EDEA_REQUIRE(options.jitter_min >= 0.0 &&
                   options.jitter_min <= options.jitter_max,
               "backoff jitter range inverted");
  const int shift = std::min(attempt - 1, options.max_shift);
  const double nominal =
      static_cast<double>(base_ms) * static_cast<double>(std::int64_t{1} << shift);
  const double jitter =
      options.jitter_min == options.jitter_max
          ? (static_cast<void>(rng.uniform()), options.jitter_min)
          : rng.uniform(options.jitter_min, options.jitter_max);
  return std::max<std::int64_t>(1,
                                static_cast<std::int64_t>(nominal * jitter));
}

}  // namespace edea
