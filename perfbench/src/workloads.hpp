// workloads.hpp - the benchmark's seeded request streams.
//
// A workload is a line table (every distinct `run` line it can send) plus
// a generator that draws the next request for a connection. The server
// only ever sees the generated lines; the seed stays with the benchmark.
//
//   dse-revisit  one mobilenet-cifar workload, a grid over td, tk,
//                clock_ghz and backend plus infeasible kernel=5 points;
//                every block of 20 requests introduces 3 fresh points and
//                revisits 17 recent ones (Zipf over recency), so the hit
//                share is 85% by construction
//   zoo-fresh    every request a never-seen (network, seed) across five
//                zoo networks and both backends, some with dilation=2,
//                depth_multiplier=2 or batch=2
//   zipf-hits    a Zipf stream over 144 prefilled design points of small
//                networks: after setup every request is a cache hit
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Requests each connection keeps in flight, and the fewest free slots
  /// a writer waits for before it refills (1 = refill every reply).
  [[nodiscard]] virtual int window() const = 0;
  [[nodiscard]] virtual int refill() const { return 1; }

  /// Lines sent once during setup and answered before timing starts:
  /// warm-up and cache prefill. Disjoint from the stream's fresh lines.
  [[nodiscard]] virtual std::vector<std::string> setup_lines() const = 0;

  /// Draws the next request of connection `conn` (0 or 1): returns its
  /// line-table index and copies the line into `*line`. Thread-safe.
  virtual std::uint32_t next(int conn, std::string* line) = 0;

  /// Replies after which the server's peak RSS is read.
  [[nodiscard]] virtual std::uint64_t rss_probe_after() const = 0;

  /// True when setup leaves every stream request a cache hit.
  [[nodiscard]] virtual bool stream_only_hits() const { return false; }

  /// Line `index` of the table; valid for every index next() returned.
  [[nodiscard]] virtual std::string line(std::uint32_t index) const = 0;
};

/// Builds the named workload for `seed`; throws std::invalid_argument for
/// unknown names.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

}  // namespace perfbench
