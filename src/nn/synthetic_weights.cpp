#include "nn/synthetic_weights.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/check.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define EDEA_X86_KERNELS 1
#include <immintrin.h>
#else
#define EDEA_X86_KERNELS 0
#endif

namespace edea::nn {

namespace {

/// The weight Rng::normal(0.0, stddev) gives for the standard variate n:
/// its `mean + stddev * n`, narrowed as make_random_float_layer narrows
/// it. Called only outside the target("fma") kernels below, where
/// -ffp-contract could fuse the multiply-add and change its bits.
float exact_weight(double stddev, double n) {
  return static_cast<float>(0.0 + stddev * n);
}

/// Uniform pairs per chunk: a multiple of the vector width, small enough
/// that the pairs stay in L1 between drawing and transforming. Each chunk
/// keeps a checkpoint of the Rng, so NormalDraw::exact() replays at most
/// one chunk.
constexpr std::size_t kChunkPairs = 64;

#if EDEA_X86_KERNELS

#define EDEA_AVX2_FMA __attribute__((target("avx2,fma")))
#define EDEA_AVX2_FMA_INLINE \
  __attribute__((target("avx2,fma"), always_inline)) inline

/// Natural log of four doubles in [2^-53, 1): fdlibm's e_log reduction
/// x = 2^k (1 + f), sqrt(2)/2 <= 1 + f < sqrt(2), and its degree-14
/// polynomial in s = f / (2 + f) (error < 1 ulp).
EDEA_AVX2_FMA_INLINE __m256d log4(__m256d x) {
  const __m256i bits = _mm256_castpd_si256(x);
  __m256i high = _mm256_srli_epi64(bits, 32);
  __m256i k = _mm256_sub_epi64(_mm256_srli_epi64(high, 20),
                               _mm256_set1_epi64x(1023));
  high = _mm256_and_si256(high, _mm256_set1_epi64x(0xfffff));
  // i = 0x100000 when the mantissa exceeds sqrt(2): halve it, bump k.
  const __m256i i =
      _mm256_and_si256(_mm256_add_epi64(high, _mm256_set1_epi64x(0x95f64)),
                       _mm256_set1_epi64x(0x100000));
  high = _mm256_or_si256(high,
                         _mm256_xor_si256(i, _mm256_set1_epi64x(0x3ff00000)));
  k = _mm256_add_epi64(k, _mm256_srli_epi64(i, 20));
  const __m256i mantissa = _mm256_or_si256(
      _mm256_slli_epi64(high, 32),
      _mm256_and_si256(bits, _mm256_set1_epi64x(0xffffffff)));
  const __m256d f =
      _mm256_sub_pd(_mm256_castsi256_pd(mantissa), _mm256_set1_pd(1.0));
  // k (|k| <= 53) to double through the 1.5 * 2^52 magic constant.
  const __m256d magic = _mm256_set1_pd(0x1.8p52);
  const __m256d dk = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_add_epi64(k, _mm256_castpd_si256(magic))),
      magic);

  const __m256d s = _mm256_div_pd(f, _mm256_add_pd(_mm256_set1_pd(2.0), f));
  const __m256d z = _mm256_mul_pd(s, s);
  const __m256d w = _mm256_mul_pd(z, z);
  __m256d t1 = _mm256_fmadd_pd(w, _mm256_set1_pd(1.531383769920937332e-01),
                               _mm256_set1_pd(2.222219843214978396e-01));
  t1 = _mm256_fmadd_pd(w, t1, _mm256_set1_pd(3.999999999940941908e-01));
  t1 = _mm256_mul_pd(w, t1);
  __m256d t2 = _mm256_fmadd_pd(w, _mm256_set1_pd(1.479819860511658591e-01),
                               _mm256_set1_pd(1.818357216161805012e-01));
  t2 = _mm256_fmadd_pd(w, t2, _mm256_set1_pd(2.857142874366239149e-01));
  t2 = _mm256_fmadd_pd(w, t2, _mm256_set1_pd(6.666666666666735130e-01));
  t2 = _mm256_mul_pd(z, t2);
  const __m256d r = _mm256_add_pd(t2, t1);
  const __m256d hfsq = _mm256_mul_pd(_mm256_set1_pd(0.5), _mm256_mul_pd(f, f));
  // log = k ln2_hi - ((hfsq - (s (hfsq + R) + k ln2_lo)) - f)
  const __m256d inner = _mm256_fmadd_pd(
      s, _mm256_add_pd(hfsq, r),
      _mm256_mul_pd(dk, _mm256_set1_pd(1.90821492927058770002e-10)));
  return _mm256_sub_pd(
      _mm256_mul_pd(dk, _mm256_set1_pd(6.93147180369123816490e-01)),
      _mm256_sub_pd(_mm256_sub_pd(hfsq, inner), f));
}

/// Box-Muller on four uniform pairs: first = mag cos(2 pi u2), second =
/// mag sin(2 pi u2), mag = sqrt(-2 ln u1). The angle reduces exactly in
/// turns: 4 u2 = q + r with q integer and |r| <= 1/2, so 2 pi u2 =
/// q pi/2 + x with |x| <= pi/4, where fdlibm's k_sin/k_cos polynomials
/// hold; the quadrant q swaps and negates the pair.
EDEA_AVX2_FMA_INLINE void box_muller4(__m256d u1, __m256d u2, __m256d& first,
                                      __m256d& second) {
  const __m256d mag =
      _mm256_sqrt_pd(_mm256_mul_pd(_mm256_set1_pd(-2.0), log4(u1)));

  const __m256d turns = _mm256_mul_pd(u2, _mm256_set1_pd(4.0));
  const __m256d q =
      _mm256_round_pd(turns, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256d x = _mm256_mul_pd(_mm256_sub_pd(turns, q),
                                  _mm256_set1_pd(1.57079632679489661923));
  const __m256d z = _mm256_mul_pd(x, x);

  __m256d ps = _mm256_fmadd_pd(z, _mm256_set1_pd(1.58969099521155010221e-10),
                               _mm256_set1_pd(-2.50507602534068634195e-08));
  ps = _mm256_fmadd_pd(z, ps, _mm256_set1_pd(2.75573137070700676789e-06));
  ps = _mm256_fmadd_pd(z, ps, _mm256_set1_pd(-1.98412698298579493134e-04));
  ps = _mm256_fmadd_pd(z, ps, _mm256_set1_pd(8.33333333332248946124e-03));
  ps = _mm256_fmadd_pd(z, ps, _mm256_set1_pd(-1.66666666666666324348e-01));
  const __m256d sin_x = _mm256_fmadd_pd(_mm256_mul_pd(x, z), ps, x);

  __m256d pc = _mm256_fmadd_pd(z, _mm256_set1_pd(-1.13596475577881948265e-11),
                               _mm256_set1_pd(2.08757232129817482790e-09));
  pc = _mm256_fmadd_pd(z, pc, _mm256_set1_pd(-2.75573143513906633035e-07));
  pc = _mm256_fmadd_pd(z, pc, _mm256_set1_pd(2.48015872894767294178e-05));
  pc = _mm256_fmadd_pd(z, pc, _mm256_set1_pd(-1.38888888888741095749e-03));
  pc = _mm256_fmadd_pd(z, pc, _mm256_set1_pd(4.16666666666666019037e-02));
  const __m256d cos_x =
      _mm256_fmadd_pd(_mm256_mul_pd(z, z), pc,
                      _mm256_fnmadd_pd(_mm256_set1_pd(0.5), z,
                                       _mm256_set1_pd(1.0)));

  // Quadrant q mod 4: odd q swaps sin and cos; cos is negated in
  // quadrants 1 and 2, sin in quadrants 2 and 3.
  const __m256d magic = _mm256_set1_pd(0x1.8p52);
  const __m256i quadrant = _mm256_castpd_si256(_mm256_add_pd(q, magic));
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256d swap = _mm256_castsi256_pd(
      _mm256_cmpeq_epi64(_mm256_and_si256(quadrant, one), one));
  const __m256i two = _mm256_set1_epi64x(2);
  const __m256d cos_sign = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_and_si256(_mm256_add_epi64(quadrant, one), two), 62));
  const __m256d sin_sign =
      _mm256_castsi256_pd(_mm256_slli_epi64(_mm256_and_si256(quadrant, two),
                                            62));
  const __m256d c =
      _mm256_xor_pd(_mm256_blendv_pd(cos_x, sin_x, swap), cos_sign);
  const __m256d s =
      _mm256_xor_pd(_mm256_blendv_pd(sin_x, cos_x, swap), sin_sign);
  first = _mm256_mul_pd(mag, c);
  second = _mm256_mul_pd(mag, s);
}

/// `chunks` whole chunks of kChunkPairs pairs drawn from `rng` into
/// `out` (2 kChunkPairs variates each), pushing the Rng's state before
/// every chunk onto `checkpoints`. The next chunk's uniforms are drawn
/// while the current one transforms, so the generator's serial chain
/// overlaps the vector math.
EDEA_AVX2_FMA void draw_chunks_avx2(Rng& rng, std::size_t chunks, float* out,
                                    std::vector<Rng>& checkpoints) {
  if (chunks == 0) return;
  alignas(32) double u1[2][kChunkPairs];
  alignas(32) double u2[2][kChunkPairs];
  checkpoints.push_back(rng);
  for (std::size_t k = 0; k < kChunkPairs; ++k) {
    rng.box_muller_uniforms(u1[0][k], u2[0][k]);
  }
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t cur = c % 2;
    const bool more = c + 1 < chunks;
    if (more) checkpoints.push_back(rng);
    float* dst = out + 2 * kChunkPairs * c;
    for (std::size_t k = 0; k < kChunkPairs; k += 4) {
      if (more) {
        for (std::size_t j = k; j < k + 4; ++j) {
          rng.box_muller_uniforms(u1[1 - cur][j], u2[1 - cur][j]);
        }
      }
      __m256d first;
      __m256d second;
      box_muller4(_mm256_load_pd(u1[cur] + k), _mm256_load_pd(u2[cur] + k),
                  first, second);
      const __m128 f = _mm256_cvtpd_ps(first);
      const __m128 s = _mm256_cvtpd_ps(second);
      _mm_storeu_ps(dst + 2 * k, _mm_unpacklo_ps(f, s));
      _mm_storeu_ps(dst + 2 * k + 4, _mm_unpackhi_ps(f, s));
    }
  }
}

EDEA_AVX2_FMA void box_muller_doubles_avx2(const double* u1, const double* u2,
                                           std::size_t pairs, double* first,
                                           double* second) {
  for (std::size_t k = 0; k < pairs; k += 4) {
    __m256d f;
    __m256d s;
    box_muller4(_mm256_loadu_pd(u1 + k), _mm256_loadu_pd(u2 + k), f, s);
    _mm256_storeu_pd(first + k, f);
    _mm256_storeu_pd(second + k, s);
  }
}

/// max |n[i]| over a multiple of 8 elements.
EDEA_AVX2_FMA float max_abs_avx2(const float* n, std::size_t count) {
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  __m256 m = _mm256_setzero_ps();
  for (std::size_t i = 0; i < count; i += 8) {
    m = _mm256_max_ps(m, _mm256_and_ps(_mm256_loadu_ps(n + i), abs_mask));
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, m);
  return *std::max_element(lanes, lanes + 8);
}

/// Appends the index of every n[i] with |n[i]| >= floor, over a multiple
/// of 8 elements.
EDEA_AVX2_FMA void collect_at_least_avx2(const float* n, std::size_t count,
                                         float floor,
                                         std::vector<std::size_t>& out) {
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const __m256 f = _mm256_set1_ps(floor);
  for (std::size_t i = 0; i < count; i += 8) {
    const __m256 a = _mm256_and_ps(_mm256_loadu_ps(n + i), abs_mask);
    for (int mask = _mm256_movemask_ps(_mm256_cmp_ps(a, f, _CMP_GE_OQ));
         mask != 0; mask &= mask - 1) {
      out.push_back(i + static_cast<std::size_t>(__builtin_ctz(mask)));
    }
  }
}

/// The approximate half of quantize_normals: out[i] = clamp(round(t)) for
/// t = n[i] * ratio, a multiple of 8 elements. An element whose t lies
/// within `margin` of a rounding boundary gets its index appended to
/// `undecided` instead; its code is left for the caller.
EDEA_AVX2_FMA void round_scaled_avx2(const float* n, std::size_t count,
                                     double ratio, double margin,
                                     std::int8_t* out,
                                     std::vector<std::size_t>& undecided) {
  const __m256d scale = _mm256_set1_pd(ratio);
  const __m256d limit = _mm256_set1_pd(0.5 - margin);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffll));
  for (std::size_t i = 0; i < count; i += 8) {
    const __m256 v = _mm256_loadu_ps(n + i);
    const __m256d t_lo =
        _mm256_mul_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(v)), scale);
    const __m256d t_hi =
        _mm256_mul_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)), scale);
    const __m256d r_lo =
        _mm256_round_pd(t_lo, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    const __m256d r_hi =
        _mm256_round_pd(t_hi, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    // Undecided: |t - round(t)| >= 0.5 - margin.
    const int near_lo = _mm256_movemask_pd(_mm256_cmp_pd(
        _mm256_and_pd(_mm256_sub_pd(t_lo, r_lo), abs_mask), limit, _CMP_GE_OQ));
    const int near_hi = _mm256_movemask_pd(_mm256_cmp_pd(
        _mm256_and_pd(_mm256_sub_pd(t_hi, r_hi), abs_mask), limit, _CMP_GE_OQ));
    // Saturating packs clamp to [-128, 127] as quantize() clamps.
    const __m128i words = _mm_packs_epi32(_mm256_cvtpd_epi32(r_lo),
                                          _mm256_cvtpd_epi32(r_hi));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i),
                     _mm_packs_epi16(words, words));
    for (int mask = near_lo | (near_hi << 4); mask != 0; mask &= mask - 1) {
      undecided.push_back(i + static_cast<std::size_t>(__builtin_ctz(mask)));
    }
  }
}

#endif  // EDEA_X86_KERNELS

/// Scalar round_scaled_avx2, for hosts without the kernels and for the
/// ragged tail; indices are reported plus `base`.
void round_scaled(const float* n, std::size_t count, double ratio,
                  double margin, std::size_t base, std::int8_t* out,
                  std::vector<std::size_t>& undecided) {
  for (std::size_t i = 0; i < count; ++i) {
    const double t = static_cast<double>(n[i]) * ratio;
    const double r = std::nearbyint(t);
    if (std::abs(t - r) >= 0.5 - margin) {
      undecided.push_back(base + i);
      continue;
    }
    out[i] = static_cast<std::int8_t>(std::clamp(
        r, static_cast<double>(kInt8Min), static_cast<double>(kInt8Max)));
  }
}

}  // namespace

namespace detail {

bool vector_box_muller_available() {
#if EDEA_X86_KERNELS
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  }();
  return available;
#else
  return false;
#endif
}

void vector_box_muller(const double* u1, const double* u2, std::size_t pairs,
                       double* first, double* second) {
  EDEA_REQUIRE(vector_box_muller_available(),
               "the vectorized Box-Muller kernel needs AVX2 and FMA");
#if EDEA_X86_KERNELS
  const std::size_t whole = pairs - pairs % 4;
  box_muller_doubles_avx2(u1, u2, whole, first, second);
  if (whole == pairs) return;
  // Ragged tail: pad with a harmless pair.
  double t1[4] = {0.5, 0.5, 0.5, 0.5};
  double t2[4] = {0.0, 0.0, 0.0, 0.0};
  double f[4];
  double s[4];
  std::copy(u1 + whole, u1 + pairs, t1);
  std::copy(u2 + whole, u2 + pairs, t2);
  box_muller_doubles_avx2(t1, t2, 4, f, s);
  std::copy(f, f + (pairs - whole), first + whole);
  std::copy(s, s + (pairs - whole), second + whole);
#else
  (void)u1, (void)u2, (void)pairs, (void)first, (void)second;
#endif
}

}  // namespace detail

NormalDraw::NormalDraw(Rng& rng, std::size_t count, DrawPath path)
    : count_(count),
      approx_(new float[count]),
      vectorized_(path == DrawPath::kAuto &&
                  detail::vector_box_muller_available()) {
  if (count == 0) return;
  std::size_t next = 0;
  if (rng.take_cached_normal(head_)) {
    has_head_ = true;
    approx_[next++] = static_cast<float>(head_);
  }
  const std::size_t pairs = (count - next + 1) / 2;
  checkpoints_.reserve((pairs + kChunkPairs - 1) / kChunkPairs);
  std::size_t p0 = 0;
#if EDEA_X86_KERNELS
  if (vectorized_) {
    // Chunks that own all their variates; the rest take the loop below.
    const std::size_t chunks = (count - next) / (2 * kChunkPairs);
    draw_chunks_avx2(rng, chunks, approx_.get() + next, checkpoints_);
    p0 = chunks * kChunkPairs;
    next += 2 * p0;
  }
#endif
  // The last, partial chunk (and every chunk on the libm path).
  for (; p0 < pairs; p0 += kChunkPairs) {
    checkpoints_.push_back(rng);
    const std::size_t m = std::min(kChunkPairs, pairs - p0);
    double u1[kChunkPairs];
    double u2[kChunkPairs];
    for (std::size_t k = 0; k < m; ++k) rng.box_muller_uniforms(u1[k], u2[k]);
    double first[kChunkPairs];
    double second[kChunkPairs];
    if (vectorized_) {
      detail::vector_box_muller(u1, u2, m, first, second);
    } else {
      for (std::size_t k = 0; k < m; ++k) {
        Rng::box_muller(u1[k], u2[k], first[k], second[k]);
      }
    }
    for (std::size_t k = 0; k < m; ++k) {
      approx_[next++] = static_cast<float>(first[k]);
      if (next == count) {
        // An odd count leaves this pair's second variate to the Rng's
        // cache, exact, as normal() would.
        double exact_first = 0.0;
        double exact_second = 0.0;
        Rng::box_muller(u1[k], u2[k], exact_first, exact_second);
        rng.cache_normal(exact_second);
        break;
      }
      approx_[next++] = static_cast<float>(second[k]);
    }
  }
}

double NormalDraw::exact(std::size_t i) const {
  EDEA_REQUIRE(i < count_, "normal draw index out of range");
  if (has_head_ && i == 0) return head_;
  const std::size_t variate = i - (has_head_ ? 1 : 0);
  const std::size_t pair = variate / 2;
  Rng replay = checkpoints_[pair / kChunkPairs];
  double u1 = 0.0;
  double u2 = 0.0;
  for (std::size_t k = 0; k <= pair % kChunkPairs; ++k) {
    replay.box_muller_uniforms(u1, u2);
  }
  double first = 0.0;
  double second = 0.0;
  Rng::box_muller(u1, u2, first, second);
  return variate % 2 == 0 ? first : second;
}

QuantScale quantize_normals(const NormalDraw& draw, std::size_t offset,
                            double stddev, Int8Tensor& out) {
  const std::size_t count = out.size();
  EDEA_REQUIRE(offset <= draw.size() && count <= draw.size() - offset,
               "quantized weights overrun the normal draw");
  EDEA_REQUIRE(stddev > 0.0, "weight standard deviation must be positive");
  const float* n = draw.approx() + offset;
  std::int8_t* codes = out.data();

  // In units of stddev, |w_i| sits within D = 2E + 2^-21 amax of
  // |approx_i| (the draw bound, the product's and the narrowing's
  // roundings), so the largest |w| belongs to an element whose |approx|
  // is within 2D of the largest |approx|. Only those are recomputed.
  const std::size_t whole = draw.vectorized() ? count - count % 8 : 0;
  float amax = 0.0f;
#if EDEA_X86_KERNELS
  if (whole > 0) amax = max_abs_avx2(n, whole);
#endif
  for (std::size_t i = whole; i < count; ++i) {
    amax = std::max(amax, std::abs(n[i]));
  }
  const double floor = static_cast<double>(amax) * (1.0 - 0x1p-20) -
                       4.0 * NormalDraw::kKernelErrorBound;
  // Compared as floats: round the floor down so no candidate is lost.
  float float_floor = static_cast<float>(floor);
  if (static_cast<double>(float_floor) > floor) {
    float_floor = std::nextafter(float_floor, -1.0f);
  }
  std::vector<std::size_t> candidates;
#if EDEA_X86_KERNELS
  if (whole > 0) collect_at_least_avx2(n, whole, float_floor, candidates);
#endif
  for (std::size_t i = whole; i < count; ++i) {
    if (std::abs(n[i]) >= float_floor) candidates.push_back(i);
  }
  double max_abs = 0.0;
  for (const std::size_t i : candidates) {
    const float w = exact_weight(stddev, draw.exact(offset + i));
    max_abs = std::max(max_abs, std::abs(static_cast<double>(w)));
  }
  const QuantScale scale = choose_weight_scale(max_abs);

  // t = approx * stddev / scale is within 2^-22 |t| + ratio E of the
  // float quotient quantize() rounds (the draw bound, the product's,
  // the narrowing's and the float divide's roundings). The margin is
  // twice that at |t| = 128, which bounds every t unless ratio E is so
  // large that the margin passes 1/2 and every element is recomputed.
  // Elements that close to a rounding boundary take the exact route.
  const double ratio = stddev / static_cast<double>(scale.scale);
  const double margin =
      128.0 * 0x1p-21 + 2.0 * ratio * NormalDraw::kKernelErrorBound;
  std::vector<std::size_t> undecided;
#if EDEA_X86_KERNELS
  if (whole > 0) round_scaled_avx2(n, whole, ratio, margin, codes, undecided);
#endif
  round_scaled(n + whole, count - whole, ratio, margin, whole, codes + whole,
               undecided);
  for (const std::size_t i : undecided) {
    codes[i] =
        scale.quantize_unchecked(exact_weight(stddev, draw.exact(offset + i)));
  }
  return scale;
}

}  // namespace edea::nn
