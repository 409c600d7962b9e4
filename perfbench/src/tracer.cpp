#include "tracer.hpp"

#include <fstream>
#include <unordered_map>

#include "common.hpp"

namespace perfbench {

namespace {
thread_local std::uint64_t tl_open_span = 0;
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t request)
    : tracer_(tracer) {
  if (tracer_.enabled_) {
    {
      const std::lock_guard<std::mutex> lock(tracer_.mutex_);
      span_.id = tracer_.next_id_++;
    }
    span_.parent = tl_open_span;
    span_.request = request;
    span_.name = name;
    tl_open_span = span_.id;
  }
  span_.start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  if (!tracer_.enabled_) return;
  span_.end_ns = now_ns();
  tl_open_span = span_.parent;
  const std::lock_guard<std::mutex> lock(tracer_.mutex_);
  tracer_.spans_.push_back(span_);
}

std::map<std::string, double> Tracer::request_self_ns() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<std::uint64_t, double> child_ns;
  for (const Span& s : spans_) {
    if (s.parent != 0) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    if (s.request == 0) continue;
    const std::string name = s.name;
    const auto it = child_ns.find(s.id);
    self[name.substr(0, name.find('.'))] +=
        static_cast<double>(s.end_ns - s.start_ns) -
        (it == child_ns.end() ? 0.0 : it->second);
  }
  return self;
}

bool Tracer::write(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  for (const Span& s : spans_) {
    out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
