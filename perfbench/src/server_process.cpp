#include "server_process.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common.hpp"

extern char** environ;

namespace perfbench {

ServerProcess::ServerProcess(const std::string& binary) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe2 failed");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], 2);
  std::vector<std::string> args{binary, "--listen", "0"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipe_fds[1]);
  stderr_fd_ = pipe_fds[0];
  if (rc != 0) {
    pid_ = -1;
    stop();
    throw std::runtime_error("cannot spawn " + binary);
  }

  const std::string marker = "listening on 127.0.0.1:";
  std::string text;
  const std::int64_t deadline = now_ns() + 30'000'000'000;
  while (now_ns() < deadline) {
    pollfd pfd{stderr_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    char buf[512];
    const ssize_t n = ::read(stderr_fd_, buf, sizeof(buf));
    if (n <= 0) break;  // the server exited before listening
    text.append(buf, static_cast<std::size_t>(n));
    const std::size_t at = text.find(marker);
    const std::size_t eol =
        at == std::string::npos ? at : text.find('\n', at);
    if (eol != std::string::npos) {
      port_ = static_cast<std::uint16_t>(
          std::stoul(text.substr(at + marker.size())));
      return;
    }
  }
  stop();
  throw std::runtime_error("server did not report a port: " + text);
}

ServerProcess::~ServerProcess() { stop(); }

double ServerProcess::rss_peak_mb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void ServerProcess::kill_now() noexcept {
  if (pid_ > 0) ::kill(pid_, SIGKILL);
}

void ServerProcess::stop() noexcept {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    const std::int64_t deadline = now_ns() + 10'000'000'000;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_ns() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }
  if (stderr_fd_ >= 0) {
    ::close(stderr_fd_);
    stderr_fd_ = -1;
  }
}

}  // namespace perfbench
