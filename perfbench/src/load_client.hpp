// load_client.hpp - the windowed closed-loop load client.
//
// Each connection (service::connect_socket) switches to `mode unordered`
// and then runs one writer and one reader thread. The writer keeps
// Workload::window() requests in flight, stamps each send, and stops
// sending at the deadline; the reader matches every `id=<n>` reply to its
// request, stamps it, and keeps only a digest of the reply (cache= token
// removed) so that millions of replies fit in memory. Replies are checked
// against the reference after the timed window, never inside it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace edea::service {
class Stream;
}

namespace perfbench {

/// Per-request log of one connection, indexed by request order.
struct ConnectionLog {
  enum Flag : std::uint8_t {
    kHit = 1,
    kProtocolError = 2,
    kBusy = 4,
    kUnexpected = 8,  // unparsable reply or unknown id
  };
  std::vector<std::uint32_t> line;   // line-table index
  std::vector<std::int64_t> send_ns;
  std::vector<std::int64_t> recv_ns;  // 0 = no reply
  std::vector<std::uint64_t> digest;
  std::vector<std::uint8_t> flags;
  std::uint64_t sent = 0;
  std::uint64_t stray_replies = 0;  // replies matching no request
};

struct LoadResult {
  std::vector<ConnectionLog> connections;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;  // last reply (or start, if none)
  /// Host steal (USER_HZ ticks, summed over vCPUs, from /proc/stat) during
  /// each equal slice of the window: time the hypervisor ran something
  /// else while this machine's vCPUs wanted to run.
  std::vector<double> bin_steal;
};

/// Opens a connection and negotiates unordered replies. Throws on failure.
[[nodiscard]] std::unique_ptr<edea::service::Stream> open_unordered(
    std::uint16_t port);

/// Sends `lines` on `stream` (already unordered) as one pipelined burst
/// and returns each reply's digest in line order; a missing or non-outcome
/// reply yields digest 0.
[[nodiscard]] std::vector<std::uint64_t> send_all(
    edea::service::Stream& stream, const std::vector<std::string>& lines);

struct LoadHooks {
  /// Runs once, on a reader thread, when `milestone` replies have arrived
  /// across all connections.
  std::uint64_t milestone = 0;
  std::function<void()> on_milestone;
  /// Runs if replies are still missing 60 s after the deadline; must make
  /// every blocked read return (e.g. by killing the server).
  std::function<void()> on_stuck;
};

/// Drives `connections` (each already unordered) for `seconds`, sampling
/// host steal at the edges of `bins` equal slices of the window.
[[nodiscard]] LoadResult run_load(
    Workload& workload,
    std::vector<std::unique_ptr<edea::service::Stream>>& connections,
    double seconds, std::size_t bins, const LoadHooks& hooks);

/// Parses a `stats` reply; false if the line is not one.
bool parse_stats(const std::string& line, std::uint64_t* hits,
                 std::uint64_t* misses, std::uint64_t* evictions);

}  // namespace perfbench
