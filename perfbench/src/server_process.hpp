// server_process.hpp - the simulation server as a child process.
//
// Spawns `<binary> --listen 0` (default flags otherwise), waits for the
// "listening on 127.0.0.1:<port>" line on its stderr, and stops it on
// destruction: SIGTERM (the server stops accepting and exits once its
// sessions end), then SIGKILL if it has not exited within 10 s.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace perfbench {

class ServerProcess {
 public:
  /// Throws std::runtime_error when the server cannot be started or does
  /// not report its port within 30 s.
  explicit ServerProcess(const std::string& binary);
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Peak resident set (VmHWM) in MiB, read from /proc/<pid>/status.
  [[nodiscard]] double rss_peak_mb() const;

  /// SIGKILL without waiting: unblocks clients stuck on a hung server.
  void kill_now() noexcept;

  /// Stops the server and reaps it; idempotent.
  void stop() noexcept;

 private:
  pid_t pid_ = -1;
  int stderr_fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace perfbench
