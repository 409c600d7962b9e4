// reference.hpp - the in-process reference replies.
//
// Serves the given lines through service::Session over a StdioStream -
// the server's own session code, with no socket and no server process -
// and returns the digest of each reply (cache= token removed). Lines are
// served in chunks by parallel sessions, each with its own
// WorkloadCatalog, so the reference costs about what the server spent and
// its memory stays bounded by the chunk size.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Reference {
  std::vector<std::uint64_t> digests;  ///< one per line, in order
  /// Cache misses of the reference service: the number of distinct keys
  /// that reached it. A line whose workload cannot be synthesized is
  /// answered with an error outcome before it reaches the service.
  std::uint64_t misses = 0;
};

/// Serves `lines` (each distinct) and digests every reply.
[[nodiscard]] Reference serve_reference(const std::vector<std::string>& lines);

}  // namespace perfbench
