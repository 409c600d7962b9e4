// perfbench_client - the load generator and layer tracer of the repository
// benchmark (see perfbench/README.md). perfbench/run.py builds and calls
// it; by hand:
//
//   perfbench_client load  --workload W --seed N --seconds S --server PATH
//   perfbench_client trace --workload W --seed N [--trace-out FILE]
//
// Progress goes to stderr; the last stdout line is the JSON result.
#include <iostream>
#include <stdexcept>
#include <string>

#include "runs.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using perfbench::RunOptions;
  if (argc < 2) {
    std::cerr << "usage: perfbench_client load|trace --workload W --seed N "
                 "[--seconds S] [--server PATH] [--trace-out FILE]\n";
    return 2;
  }
  const std::string mode = argv[1];
  RunOptions options;
  try {
    for (int i = 2; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") options.workload = value;
      else if (key == "--seed") options.seed = std::stoull(value);
      else if (key == "--seconds") options.seconds = std::stod(value);
      else if (key == "--server") options.server = value;
      else if (key == "--trace-out") options.trace_out = value;
      else throw std::invalid_argument("unknown option " + key);
    }
    (void)perfbench::make_workload(options.workload, options.seed);
    if (options.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
    if (mode == "load") {
      if (options.server.empty()) throw std::invalid_argument("load needs --server");
      return perfbench::run_load_mode(options);
    }
    if (mode == "trace") return perfbench::run_trace_mode(options);
    throw std::invalid_argument("unknown mode " + mode);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_client: " << e.what() << "\n";
    return 2;
  }
}
