// random.hpp - deterministic pseudo-random generation for synthetic data.
//
// Everything in this repository that consumes randomness (weights, images,
// property-test inputs) goes through Rng so runs are reproducible from a
// single seed. Rng wraps a SplitMix64-seeded xoshiro256** generator - small,
// fast, and adequate for synthetic-data purposes (no cryptographic claims).
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

#include "util/check.hpp"

namespace edea {

/// Deterministic PRNG with convenience samplers. Satisfies
/// UniformRandomBitGenerator so it also plugs into <random> if needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) {
    // SplitMix64 expansion of the seed into the xoshiro state, per the
    // generator authors' recommendation (avoids all-zero states).
    std::uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9E3779B97F4A7C15ull;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      word = z ^ (z >> 31);
    }
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    EDEA_REQUIRE(lo <= hi, "uniform_int bounds inverted");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) {  // full 64-bit range
      return static_cast<std::int64_t>((*this)());
    }
    // Rejection sampling to kill modulo bias.
    const std::uint64_t limit = max() - max() % span;
    std::uint64_t draw = 0;
    do {
      draw = (*this)();
    } while (draw >= limit);
    return lo + static_cast<std::int64_t>(draw % span);
  }

  /// Standard normal via Box-Muller (cached second variate).
  double normal() noexcept {
    if (has_cached_) {
      has_cached_ = false;
      return cached_;
    }
    double u1 = 0.0;
    double u2 = 0.0;
    box_muller_uniforms(u1, u2);
    double first = 0.0;
    box_muller(u1, u2, first, cached_);
    has_cached_ = true;
    return first;
  }

  /// The uniform pair one Box-Muller step of normal() consumes: u1 in
  /// (0, 1) by rejection, then u2 in [0, 1).
  void box_muller_uniforms(double& u1, double& u2) noexcept {
    do {
      u1 = uniform();
    } while (u1 <= 0.0);
    u2 = uniform();
  }

  /// The Box-Muller transform of one uniform pair: `first` is the variate
  /// normal() returns, `second` the one it caches.
  static void box_muller(double u1, double u2, double& first,
                         double& second) noexcept {
    const double mag = std::sqrt(-2.0 * std::log(u1));
    constexpr double kTwoPi = 6.283185307179586476925286766559;
    second = mag * std::sin(kTwoPi * u2);
    first = mag * std::cos(kTwoPi * u2);
  }

  /// Hands out the cached second variate, if normal() left one. With
  /// cache_normal() this lets a bulk draw continue and leave the stream
  /// exactly where the equivalent normal() calls would.
  bool take_cached_normal(double& out) noexcept {
    if (!has_cached_) return false;
    has_cached_ = false;
    out = cached_;
    return true;
  }

  /// Makes `value` the variate the next normal() returns.
  void cache_normal(double value) noexcept {
    cached_ = value;
    has_cached_ = true;
  }

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Bernoulli draw with probability p of returning true.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Derives an independent child generator (for per-layer weight streams).
  Rng fork() noexcept { return Rng((*this)()); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
  double cached_ = 0.0;
  bool has_cached_ = false;
};

}  // namespace edea
