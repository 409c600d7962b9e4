// server_cli.hpp - command line of the simulation server example, as a
// library component so the flag grammar and the --help text are unit
// testable (tests/server_cli_test.cpp asserts every documented flag
// appears in the help output) instead of living untestably in main().
#pragma once

#include <cstdint>
#include <string>

#include "core/design_point.hpp"
#include "service/simulation_service.hpp"

namespace edea::service {

/// Parsed server command line. `error` empty means the parse succeeded.
struct ServerConfig {
  bool help = false;    ///< --help: print usage, exit 0
  bool verify = false;  ///< --verify: stdio mode only, serial cross-check
  bool listen = false;  ///< --listen given: TCP socket mode
  std::uint16_t port = 0;        ///< --listen PORT (0 = ephemeral)
  std::size_t max_sessions = 0;  ///< --max-sessions N (0 = unlimited)
  std::string cache_file;        ///< --cache-file PATH ("" = no persistence)
  ServiceOptions service;        ///< --workers / --cache / --tile-parallelism
  /// --backend / --batch / --dilation / --depth-multiplier: the design
  /// point requests start from when their line carries no matching key
  /// (parse_design_flag; validated at parse time).
  core::DesignPoint defaults;
  /// --ordered: refuse `mode unordered` switches, locking every session
  /// to the byte-exact ordered reply protocol (the verified reference).
  bool ordered = false;
  /// --busy-retry-ms N: the retry hint busy replies advertise. Validated
  /// >= 1 at parse time; only meaningful with --max-queue (default 25).
  int busy_retry_ms = 25;

  std::string error;  ///< non-empty: bad usage, message says why
};

/// Parses argv (past argv[0]). Never throws; any problem - unknown flag,
/// missing or malformed value, contradictory flags (--verify with
/// --listen, --max-sessions without --listen) - comes back in `error`.
[[nodiscard]] ServerConfig parse_server_args(int argc,
                                             const char* const* argv);

/// The full usage/help text: every flag with its value shape and a
/// one-line description. This is the single source of truth the
/// --help satellite test pins each documented option against.
[[nodiscard]] std::string server_usage();

}  // namespace edea::service
