// common.hpp - small helpers shared by the perfbench client: clock, a
// benchmark-owned PRNG and Zipf sampler (so request streams do not move
// when the program's own generators change), reply hashing, percentiles,
// and a minimal JSON writer for the result line.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64: tiny, seedable, and fully specified here.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Zipf(s) over ranks 0..n-1 (rank 0 most popular), by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t draw(Rng& rng) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

inline std::uint64_t fnv1a(std::string_view text,
                           std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Hash of an outcome line with its ` cache=hit|miss` token removed: the
/// only part of a reply that legitimately differs between the server and
/// the in-process reference.
inline std::uint64_t reply_digest(std::string_view line) {
  const std::size_t at = line.find(" cache=");
  if (at == std::string_view::npos) return fnv1a(line);
  std::size_t end = line.find(' ', at + 1);
  if (end == std::string_view::npos) end = line.size();
  return fnv1a(line.substr(end), fnv1a(line.substr(0, at)));
}

/// Linear-interpolated percentile (p in [0, 100]) of sorted values.
inline double sorted_percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double pos = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return sorted_percentile(values, 50.0);
}

/// Named metrics with units, printed as the result line's "metrics" object.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  [[nodiscard]] std::string json() const {
    std::ostringstream os;
    os.precision(17);
    os << '{';
    bool first = true;
    for (const auto& [name, v] : values_) {
      if (!first) os << ", ";
      first = false;
      os << '"' << name << "\": {\"value\": " << v.first << ", \"unit\": \""
         << v.second << "\"}";
    }
    os << '}';
    return os.str();
  }
  [[nodiscard]] const std::map<std::string, std::pair<double, std::string>>&
  values() const {
    return values_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

inline std::string result_line(bool correct, std::uint64_t attempted,
                               std::uint64_t failed, const Metrics& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": " << metrics.json() << '}';
  return os.str();
}

}  // namespace perfbench
