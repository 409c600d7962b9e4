#include "service/client_cli.hpp"

#include <stdexcept>

#include "service/protocol.hpp"

namespace edea::service {

std::string client_usage() {
  return
      "usage: simulation_client --connect HOST:PORT [options] < requests.txt\n"
      "\n"
      "Replays a request stream of the EDEA simulation line protocol over\n"
      "TCP against a running simulation_server and prints the server's\n"
      "responses to stdout in request order.\n"
      "\n"
      "options:\n"
      "  --help                 print this help and exit\n"
      "  --connect HOST:PORT    server to connect to (required; retries\n"
      "                         while the server is still binding)\n"
      "  --verify               recompute the reference responses in\n"
      "                         process (the stdio Session code path) and\n"
      "                         exit nonzero unless the server's responses\n"
      "                         are bit-identical\n"
      "  --expect-all-hits      with --verify: additionally require every\n"
      "                         run response to be flagged cache=hit and\n"
      "                         the stats line to report zero misses (the\n"
      "                         persisted-cache replay gate)\n"
      "  --backend ID           default backend of the in-process --verify\n"
      "                         reference for requests that name none;\n"
      "                         must mirror the server's --backend\n"
      "                         (default edea)\n"
      "  --batch N              default images-per-run of the in-process\n"
      "                         --verify reference for requests that carry\n"
      "                         no batch= key; must mirror the server's\n"
      "                         --batch (>= 1; default 1)\n"
      "  --dilation N           default DWC dilation of the in-process\n"
      "                         --verify reference for requests that carry\n"
      "                         no dilation= key; must mirror the server's\n"
      "                         --dilation (>= 1; default 1)\n"
      "  --depth-multiplier N   default extra depthwise multiplier of the\n"
      "                         in-process --verify reference for requests\n"
      "                         that carry no depth_multiplier= key; must\n"
      "                         mirror the server's --depth-multiplier\n"
      "                         (>= 1; default 1)\n"
      "  --pipeline N           keep up to N requests in flight using\n"
      "                         batch frames and unordered streaming,\n"
      "                         retrying busy rejections with jittered\n"
      "                         backoff; responses still print in request\n"
      "                         order (1..4096; default: send everything,\n"
      "                         then read - the legacy one-shot mode)\n"
      "  --ordered              with --pipeline: stay on the byte-exact\n"
      "                         ordered reply protocol instead of\n"
      "                         negotiating `mode unordered`\n";
}

ClientConfig parse_client_args(int argc, const char* const* argv) {
  ClientConfig config;

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
    if (parse_design_flag(argc, argv, i, config.defaults, config.error)) {
      continue;
    }
    if (arg == "--help") {
      config.help = true;
    } else if (arg == "--verify") {
      config.verify = true;
    } else if (arg == "--expect-all-hits") {
      config.expect_all_hits = true;
    } else if (arg == "--pipeline") {
      if (!value_of(i, arg, &value)) break;
      int window = 0;
      if (!parse_strict_count(value, &window) || window > kMaxFrameLines) {
        config.error = "--pipeline needs a window in [1, " +
                       std::to_string(kMaxFrameLines) + "], got '" + value +
                       "'";
        break;
      }
      config.pipeline = static_cast<std::size_t>(window);
    } else if (arg == "--ordered") {
      config.ordered = true;
    } else if (arg == "--connect") {
      if (!value_of(i, arg, &value)) break;
      const std::size_t colon = value.rfind(':');
      if (colon == std::string::npos || colon == 0 ||
          colon + 1 >= value.size()) {
        config.error = "--connect needs HOST:PORT, got '" + value + "'";
        break;
      }
      config.host = value.substr(0, colon);
      const std::string port_text = value.substr(colon + 1);
      // Digit-first, like server_cli's parse_count: std::stoul would skip
      // leading whitespace and accept a '+' sign, and client and server
      // must agree on the port grammar.
      bool port_ok = port_text.front() >= '0' && port_text.front() <= '9';
      unsigned long port = 0;
      if (port_ok) {
        try {
          std::size_t consumed = 0;
          port = std::stoul(port_text, &consumed);
          port_ok = consumed == port_text.size() && port <= 65535;
        } catch (const std::exception&) {
          port_ok = false;
        }
      }
      if (!port_ok) {
        config.error = "--connect: port in '" + value +
                       "' must be a number in [0, 65535]";
        break;
      }
      config.port = static_cast<std::uint16_t>(port);
      config.connect_given = true;
    } else {
      config.error = "unknown option '" + arg + "'";
    }
  }

  if (config.error.empty() && !config.help && !config.connect_given) {
    config.error = "--connect HOST:PORT is required";
  }
  if (config.error.empty() && config.expect_all_hits && !config.verify) {
    config.error = "--expect-all-hits requires --verify";
  }
  if (config.error.empty() && config.ordered && config.pipeline == 0) {
    // The legacy one-shot sender never negotiates a mode, so it is
    // ordered by construction - the flag would be a silent no-op.
    config.error = "--ordered only applies with --pipeline";
  }
  return config;
}

}  // namespace edea::service
