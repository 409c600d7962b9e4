// synthetic_weights.hpp - random weights drawn in bulk and quantized
// straight to int8.
//
// A synthetic layer's weights are w = float(0.0 + stddev * n) over a run
// of Rng::normal() variates n, quantized per tensor by
// choose_weight_scale + quantize_tensor. NormalDraw draws the run in bulk
// - the same uniforms in the same order, leaving the same cached variate -
// and evaluates Box-Muller with a vectorized polynomial log/sincos where
// the host has AVX2+FMA. quantize_normals turns the approximate variates
// into the exact int8 codes: every element whose code or whose claim on
// the tensor maximum the approximation cannot settle is recomputed
// through Rng::box_muller, the arithmetic normal() itself runs.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "nn/quant.hpp"
#include "nn/tensor.hpp"
#include "util/random.hpp"

namespace edea::nn {

/// How NormalDraw evaluates Box-Muller.
enum class DrawPath {
  kAuto,  ///< the AVX2+FMA kernel where the host has it, else kLibm
  kLibm,  ///< every variate through Rng::box_muller (glibc log/sin/cos)
};

/// `count` standard normals drawn from an Rng exactly as `count`
/// normal() calls would draw them: the same uniforms in the same order
/// (the u1 <= 0 rejection included), a cached variate served first, and
/// the same variate left cached afterwards.
class NormalDraw {
 public:
  /// Absolute error bound of one vectorized Box-Muller variate against
  /// Rng::box_muller. The kernel measures below 1e-13 (tested: under a
  /// thousandth of this bound); the margins built on it stay ~1e-9.
  static constexpr double kKernelErrorBound = 0x1p-30;

  NormalDraw(Rng& rng, std::size_t count, DrawPath path = DrawPath::kAuto);

  [[nodiscard]] std::size_t size() const noexcept { return count_; }

  /// The approximate variates, as floats:
  /// |approx()[i] - exact(i)| <= kKernelErrorBound + 2^-23 |approx()[i]|.
  [[nodiscard]] const float* approx() const noexcept { return approx_.get(); }

  /// The i-th variate bit for bit, as the i-th normal() call returns it
  /// (replays the uniforms of its pair from its chunk's checkpoint).
  [[nodiscard]] double exact(std::size_t i) const;

  /// Whether the approximations came from the vectorized kernel.
  [[nodiscard]] bool vectorized() const noexcept { return vectorized_; }

 private:
  std::size_t count_ = 0;
  std::unique_ptr<float[]> approx_;
  std::vector<Rng> checkpoints_;  ///< the Rng before each chunk of pairs
  bool has_head_ = false;         ///< variate 0 was the Rng's cached one
  double head_ = 0.0;
  bool vectorized_ = false;
};

/// Quantizes w_i = float(0.0 + stddev * n_i) over the variates
/// n_offset .. n_offset + out.size() - 1 of `draw` into `out`, and
/// returns the scale: bit for bit what choose_weight_scale and
/// quantize_tensor give on the float tensor of those w_i.
QuantScale quantize_normals(const NormalDraw& draw, std::size_t offset,
                            double stddev, Int8Tensor& out);

namespace detail {

/// True when the host runs the vectorized Box-Muller kernel (AVX2+FMA,
/// checked once per process).
[[nodiscard]] bool vector_box_muller_available();

/// The vectorized kernel on `pairs` uniform pairs: first[k] and
/// second[k] approximate Rng::box_muller(u1[k], u2[k]) within
/// NormalDraw::kKernelErrorBound. Requires vector_box_muller_available().
void vector_box_muller(const double* u1, const double* u2, std::size_t pairs,
                       double* first, double* second);

}  // namespace detail

}  // namespace edea::nn
