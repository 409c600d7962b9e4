// transport.hpp - the transport layer of the service tier.
//
// The service tier is three layers (see docs/ARCHITECTURE.md):
//
//   transport (this file)  ->  session (session.hpp)  ->  dispatch
//   byte streams, accept       line framing, request      SimulationService
//   loop, connection           ids, ordered replies       + result cache
//   lifetime
//
// A Transport produces connections; each connection is a Stream - one
// bidirectional, line-oriented byte channel. The transport knows nothing
// about the protocol: it hands every connection to a handler (normally
// Session::serve) and manages only lifetime and concurrency.
//
// Two implementations:
//   - StdioTransport: exactly one "connection" over an (istream, ostream)
//     pair - the scripted batch mode the stdin server always had, and the
//     in-process reference path tests compare the socket path against.
//   - SocketTransport: a POSIX TCP server. One session per accepted
//     connection, each served on its own dedicated thread - session
//     threads are I/O-bound and *block* on simulation futures, so they
//     must never run as util::ThreadPool tasks (a pool full of blocked
//     waiters cannot simulate anything); the simulations they trigger are
//     what runs on the pool, via SimulationService.
//
// Threading contract: Transport::serve blocks until the transport is
// exhausted (stdio EOF; socket: max_sessions served or shutdown() called)
// and joins every session thread before returning, so a handler never
// outlives its transport. shutdown() is safe to call from any thread.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace edea::service {

/// One bidirectional line-oriented byte channel (a client connection).
/// Implementations are used by exactly one session: a single reader
/// thread and a single writer thread (never two of either), which is the
/// session layer's split - so read_line and write_line must be safe to
/// call concurrently with *each other*, but not with themselves.
class Stream {
 public:
  virtual ~Stream() = default;

  /// Reads the next line (without its '\n'). Returns false on EOF or a
  /// broken connection - or on a line longer than the stream's cap, see
  /// line_too_long(); never throws.
  [[nodiscard]] virtual bool read_line(std::string& line) = 0;

  /// True once read_line has returned false because the peer sent a line
  /// longer than the stream buffers (a server's socket connections:
  /// kMaxLineBytes, see protocol.hpp) instead of ending the stream. Nothing more is read;
  /// the session answers that line with a protocol error and ends, which
  /// closes the connection. Streams without a cap never set it.
  [[nodiscard]] virtual bool line_too_long() const { return false; }

  /// Writes one line (appends '\n') and flushes it to the peer. Returns
  /// false on a broken connection; never throws.
  [[nodiscard]] virtual bool write_line(const std::string& line) = 0;

  /// Writes several lines as one flush ("corked"): implementations
  /// coalesce the batch into a single transport write where they can
  /// (one send(2) on a socket, one ostream flush on stdio), which is how
  /// a drained batch frame costs a handful of packets instead of one
  /// per reply. Equivalent to write_line per element otherwise. Returns
  /// false on a broken connection (the batch may then be partially
  /// delivered); never throws. Same concurrency contract as write_line.
  [[nodiscard]] virtual bool write_lines(
      const std::vector<std::string>& lines) {
    for (const std::string& line : lines) {
      if (!write_line(line)) return false;
    }
    return true;
  }

  /// Signals that no more lines will be written in the client->server
  /// direction (TCP half-close). Default: no-op - streams over process
  /// stdio signal EOF by closing the input instead.
  virtual void close_write() {}
};

/// Stream over an (istream, ostream) pair - process stdio, string streams
/// in tests. Writes flush per line so an interactive peer sees replies.
class StdioStream : public Stream {
 public:
  StdioStream(std::istream& in, std::ostream& out) : in_(in), out_(out) {}

  [[nodiscard]] bool read_line(std::string& line) override;
  [[nodiscard]] bool write_line(const std::string& line) override;
  [[nodiscard]] bool write_lines(
      const std::vector<std::string>& lines) override;

 private:
  std::istream& in_;
  std::ostream& out_;
  std::mutex write_mutex_;  ///< ostreams are not atomic per call
};

/// A source of connections. serve() runs the accept loop, invoking
/// `handler` once per connection, and returns when the transport is
/// exhausted with every handler finished.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual void serve(const std::function<void(Stream&)>& handler) = 0;
};

/// The degenerate single-connection transport: one session over stdio.
class StdioTransport : public Transport {
 public:
  StdioTransport(std::istream& in, std::ostream& out) : in_(in), out_(out) {}
  void serve(const std::function<void(Stream&)>& handler) override;

 private:
  std::istream& in_;
  std::ostream& out_;
};

struct SocketTransportOptions {
  /// TCP port to listen on; 0 asks the OS for an ephemeral port (read it
  /// back with port() - how tests avoid collisions).
  std::uint16_t port = 0;
  /// Serve exactly this many connections, then stop accepting and return
  /// from serve(). 0 = unlimited (until shutdown()).
  std::size_t max_sessions = 0;
  /// listen(2) backlog.
  int backlog = 16;
};

/// POSIX TCP server transport. Binds 127.0.0.1 (the service speaks a
/// trusting text protocol; exposure beyond loopback is a deployment
/// decision that belongs in front of it, not here). Each accepted
/// connection is served by `handler` on a dedicated thread; concurrent
/// sessions share the SimulationService (and so its cache) by
/// construction, because the handler closes over it.
class SocketTransport : public Transport {
 public:
  /// Binds and listens immediately; throws ResourceError if the socket
  /// cannot be created, bound, or listened on (e.g. port in use).
  explicit SocketTransport(SocketTransportOptions options);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// The port actually bound - equal to options.port unless that was 0.
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Accept loop: blocks until max_sessions connections have been served
  /// or shutdown() is called, then joins every session thread.
  void serve(const std::function<void(Stream&)>& handler) override;

  /// Stops accepting new connections; serve() returns once the sessions
  /// already running have finished. Callable from any thread, idempotent.
  void shutdown() noexcept;

 private:
  SocketTransportOptions options_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Client side: connects a Stream to a SocketTransport (or any TCP line
/// server) at host:port. `host` is a numeric IPv4 address or "localhost".
/// Retries ECONNREFUSED for up to `retry_ms` milliseconds - the peer may
/// still be binding (the CI loopback leg starts server and client
/// concurrently). Throws ResourceError when the connection cannot be
/// established.
[[nodiscard]] std::unique_ptr<Stream> connect_socket(const std::string& host,
                                                     std::uint16_t port,
                                                     int retry_ms = 0);

}  // namespace edea::service
