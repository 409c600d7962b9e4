// runs.hpp - the two kinds of benchmark run.
//
//   load   end to end: spawns the server, sets it up (several times, for
//          setup_s), drives the workload over loopback for `seconds`,
//          then checks every reply against the in-process reference and
//          the server's final `stats` against the stream's distinct keys
//   trace  per layer: replays a fixed prefix of the workload in process
//          with spans around each layer call, then times each layer's
//          public calls directly
//
// Both print one JSON result line on stdout as their last line and return
// the process exit code (0 only when every check passed).
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string server;     // load: path of example_simulation_server
  std::string trace_out;  // trace: where the spans are written
};

int run_load_mode(const RunOptions& options);
int run_trace_mode(const RunOptions& options);

/// nproc, CPU model and build type, for the stderr report.
[[nodiscard]] std::string host_stamp();

}  // namespace perfbench
