// tracer.hpp - in-memory spans for the traced run.
//
// A span records name, start, end, the enclosing span on the same thread
// (its parent) and the request id it serves. Spans stay in memory until
// write() dumps them as JSON lines at the end of the run. A layer's self
// time is its spans' time minus the part covered by their child spans;
// the layer is the span name up to the first '.'.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t request = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  /// A disabled tracer records nothing; its scopes only read the clock.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    Span span_;
  };

  [[nodiscard]] Scope span(const char* name, std::uint64_t request = 0) {
    return Scope(*this, name, request);
  }

  /// Self time (ns) summed per layer, over spans whose request id is
  /// non-zero (the replayed requests).
  [[nodiscard]] std::map<std::string, double> request_self_ns() const;

  /// Writes every span as one JSON object per line; false on I/O error.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

}  // namespace perfbench
