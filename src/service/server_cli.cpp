#include "service/server_cli.hpp"

#include <limits>
#include <stdexcept>

#include "service/protocol.hpp"

namespace edea::service {

namespace {

/// Parses a non-negative integer <= `max`. Must start with a digit:
/// std::stoull would silently wrap "-2" into a huge count, skip leading
/// whitespace in " 80", and accept a '+' sign - none of which belongs in
/// a port or thread count.
bool parse_count(const std::string& text, std::size_t max, std::size_t* out) {
  if (text.empty() || text.front() < '0' || text.front() > '9') return false;
  try {
    std::size_t consumed = 0;
    const unsigned long long value = std::stoull(text, &consumed);
    if (consumed != text.size() || value > max) return false;
    *out = static_cast<std::size_t>(value);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

std::string server_usage() {
  return
      "usage: simulation_server [options] < requests.txt   (stdio mode)\n"
      "       simulation_server --listen PORT [options]    (TCP socket mode)\n"
      "\n"
      "Serves the EDEA simulation line protocol (run <network> [key=value\n"
      "...] | stats) over stdin/stdout or a loopback TCP socket, one\n"
      "session per connection, with a memoizing result cache.\n"
      "\n"
      "options:\n"
      "  --help                 print this help and exit\n"
      "  --listen PORT          serve TCP on 127.0.0.1:PORT instead of\n"
      "                         stdio (0 = ephemeral; the bound port is\n"
      "                         printed to stderr)\n"
      "  --max-sessions N       socket mode: exit after serving N\n"
      "                         connections (0 = unlimited; default 0)\n"
      "  --cache-file PATH      load the persisted result cache from PATH\n"
      "                         at startup (if it exists) and save it back\n"
      "                         on shutdown, so repeated design points\n"
      "                         survive restarts\n"
      "  --backend ID           default accelerator backend for requests\n"
      "                         that carry no backend= key; one of the\n"
      "                         registered dataflows (edea, serialized;\n"
      "                         default edea)\n"
      "  --batch N              default images-per-run for requests that\n"
      "                         carry no batch= key: every run pushes N\n"
      "                         images through one planned arena/setup,\n"
      "                         bit-identical per image to N separate\n"
      "                         runs (>= 1; default 1)\n"
      "  --dilation N           default DWC dilation for requests that\n"
      "                         carry no dilation= key: every layer of the\n"
      "                         resolved network runs with taps N apart,\n"
      "                         padding scaled to preserve output extents\n"
      "                         (>= 1; default 1)\n"
      "  --depth-multiplier N   default extra depthwise multiplier for\n"
      "                         requests that carry no depth_multiplier=\n"
      "                         key, multiplying into multipliers the\n"
      "                         network already carries (>= 1; default 1)\n"
      "  --workers N            service worker threads (0 = shared pool;\n"
      "                         default 0)\n"
      "  --max-queue N          admit at most N in-flight fresh\n"
      "                         simulations; beyond that a run request\n"
      "                         answers `busy id=<n> retry_ms=<m>` instead\n"
      "                         of queueing (0 = unbounded; default 0).\n"
      "                         Cache hits and coalesced duplicates are\n"
      "                         always admitted\n"
      "  --busy-retry-ms N      the retry hint busy replies advertise\n"
      "                         (>= 1; default 25; needs --max-queue)\n"
      "  --ordered              refuse `mode unordered` switches: every\n"
      "                         session keeps the byte-exact ordered reply\n"
      "                         protocol (the verified reference mode)\n"
      "  --cache N              result-cache capacity in completed entries\n"
      "                         (0 disables memoization; default 256)\n"
      "  --tile-parallelism N   split each layer's buffer tiles over N\n"
      "                         shared-pool workers inside every request\n"
      "                         (>= 1; results are bit-identical at every\n"
      "                         width; default 1)\n"
      "  --verify               stdio mode only: recompute every request\n"
      "                         on a strictly serial SweepRunner and exit\n"
      "                         nonzero on any outcome or cache-accounting\n"
      "                         deviation (the CI gate)\n";
}

ServerConfig parse_server_args(int argc, const char* const* argv) {
  ServerConfig config;
  bool max_sessions_given = false;
  bool busy_retry_given = false;

  const auto value_of = [&](int& i, const std::string& flag,
                            std::string* out) {
    if (i + 1 >= argc) {
      config.error = flag + " needs a value";
      return false;
    }
    *out = argv[++i];
    return true;
  };

  for (int i = 0; i < argc && config.error.empty(); ++i) {
    const std::string arg = argv[i];
    std::string value;
    std::size_t count = 0;
    if (parse_design_flag(argc, argv, i, config.defaults, config.error)) {
      continue;
    }
    if (arg == "--help") {
      config.help = true;
    } else if (arg == "--verify") {
      config.verify = true;
    } else if (arg == "--listen") {
      if (!value_of(i, arg, &value)) break;
      if (!parse_count(value, 65535, &count)) {
        config.error = "--listen needs a port in [0, 65535], got '" + value +
                       "'";
        break;
      }
      config.listen = true;
      config.port = static_cast<std::uint16_t>(count);
    } else if (arg == "--max-sessions") {
      if (!value_of(i, arg, &value)) break;
      if (!parse_count(value, std::numeric_limits<std::size_t>::max(),
                       &count)) {
        config.error = "--max-sessions needs a non-negative count, got '" +
                       value + "'";
        break;
      }
      config.max_sessions = count;
      max_sessions_given = true;
    } else if (arg == "--cache-file") {
      if (!value_of(i, arg, &value)) break;
      if (value.empty()) {
        config.error = "--cache-file needs a non-empty path";
        break;
      }
      config.cache_file = value;
    } else if (arg == "--workers") {
      if (!value_of(i, arg, &value)) break;
      if (!parse_count(value, std::numeric_limits<unsigned>::max(), &count)) {
        config.error = "--workers needs a non-negative count, got '" + value +
                       "'";
        break;
      }
      config.service.worker_threads = static_cast<unsigned>(count);
    } else if (arg == "--cache") {
      if (!value_of(i, arg, &value)) break;
      if (!parse_count(value, std::numeric_limits<std::size_t>::max(),
                       &count)) {
        config.error = "--cache needs a non-negative capacity, got '" + value +
                       "'";
        break;
      }
      config.service.cache_capacity = count;
    } else if (arg == "--max-queue") {
      if (!value_of(i, arg, &value)) break;
      if (!parse_count(value, std::numeric_limits<std::size_t>::max(),
                       &count)) {
        config.error = "--max-queue needs a non-negative count, got '" +
                       value + "'";
        break;
      }
      config.service.max_queue = count;
    } else if (arg == "--busy-retry-ms") {
      if (!value_of(i, arg, &value)) break;
      if (!parse_count(value,
                       static_cast<std::size_t>(
                           std::numeric_limits<int>::max()),
                       &count) ||
          count < 1) {
        config.error =
            "--busy-retry-ms needs a positive count, got '" + value + "'";
        break;
      }
      config.busy_retry_ms = static_cast<int>(count);
      busy_retry_given = true;
    } else if (arg == "--ordered") {
      config.ordered = true;
    } else if (arg == "--tile-parallelism") {
      if (!value_of(i, arg, &value)) break;
      if (!parse_count(value,
                       static_cast<std::size_t>(
                           std::numeric_limits<int>::max()),
                       &count) ||
          count < 1) {
        config.error =
            "--tile-parallelism needs a positive width, got '" + value + "'";
        break;
      }
      config.service.tile_parallelism = static_cast<int>(count);
    } else {
      config.error = "unknown option '" + arg + "'";
    }
  }

  if (config.error.empty() && config.verify && config.listen) {
    config.error =
        "--verify is stdio-only (in socket mode the client verifies; see "
        "simulation_client --verify)";
  }
  if (config.error.empty() && max_sessions_given && !config.listen) {
    config.error = "--max-sessions only applies with --listen";
  }
  if (config.error.empty() && busy_retry_given &&
      config.service.max_queue == 0) {
    // Without a bounded queue no busy reply is ever sent - a retry hint
    // that can never reach a client is an operator error, not a knob.
    config.error = "--busy-retry-ms only applies with --max-queue";
  }
  if (config.error.empty() && !config.cache_file.empty() &&
      config.service.cache_capacity == 0) {
    // load_cache is a no-op at capacity 0, but save-on-shutdown would
    // still rewrite the file with the (empty) cache - silently destroying
    // every persisted design point. Contradictory; refuse up front.
    config.error =
        "--cache-file needs memoization; it cannot be combined with "
        "--cache 0";
  }
  return config;
}

}  // namespace edea::service
