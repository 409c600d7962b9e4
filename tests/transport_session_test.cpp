// transport_session_test - the transport and session layers of the
// service tier: stdio and socket streams, the accept loop, and the
// session's framing/ordering/stats-barrier contracts. The load-bearing
// property throughout is the acceptance criterion of the layering: a TCP
// client receives byte-identical responses to the stdio driver for the
// same request stream.
#include "service/session.hpp"
#include "service/transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/protocol.hpp"
#include "util/check.hpp"

namespace edea::service {
namespace {

/// Serves `lines` through one stdio session against `svc` and returns the
/// response lines - the reference code path everything is compared to.
std::vector<std::string> serve_stdio(SimulationService& svc,
                                     WorkloadCatalog& catalog,
                                     const std::vector<std::string>& lines,
                                     SessionStats* stats_out = nullptr,
                                     bool record_traffic = false) {
  std::ostringstream joined;
  for (const std::string& line : lines) joined << line << "\n";
  std::istringstream in(joined.str());
  std::ostringstream out;
  StdioStream stream(in, out);
  SessionOptions options;
  options.record_traffic = record_traffic;
  SessionStats stats = Session(svc, catalog, options).serve(stream);
  if (stats_out != nullptr) *stats_out = std::move(stats);

  std::vector<std::string> responses;
  std::istringstream replay(out.str());
  std::string line;
  while (std::getline(replay, line)) responses.push_back(line);
  return responses;
}

/// A cheap request stream: mobilenet-0.25x with td=16 is the fastest zoo
/// simulation, so session tests stay quick on a single-core host.
std::vector<std::string> scripted_stream() {
  return {
      "# scripted session",
      "run mobilenet-0.25x seed=3 td=16",
      "run mobilenet-0.25x seed=3 td=16 tk=32",
      "",
      "run mobilenet-0.25x seed=3 td=16",   // repeat -> hit
      "walk nowhere",                        // protocol error
      "run no-such-network seed=1",          // unresolvable zoo name
      "run mobilenet-0.25x seed=3 kernel=5", // infeasible -> error outcome
      "stats",
  };
}

TEST(StdioStreamTest, ReadsLinesAndWritesWithNewline) {
  std::istringstream in("alpha\nbeta\n");
  std::ostringstream out;
  StdioStream stream(in, out);

  std::string line;
  ASSERT_TRUE(stream.read_line(line));
  EXPECT_EQ(line, "alpha");
  ASSERT_TRUE(stream.read_line(line));
  EXPECT_EQ(line, "beta");
  EXPECT_FALSE(stream.read_line(line));

  EXPECT_TRUE(stream.write_line("ok first"));
  EXPECT_TRUE(stream.write_line("ok second"));
  EXPECT_EQ(out.str(), "ok first\nok second\n");
}

TEST(SessionTest, ResponsesArriveInRequestOrderWithExactShapes) {
  SimulationService svc;
  WorkloadCatalog catalog;
  SessionStats stats;
  const std::vector<std::string> responses =
      serve_stdio(svc, catalog, scripted_stream(), &stats);

  ASSERT_EQ(responses.size(), 7u);  // comments/blank lines answer nothing
  EXPECT_EQ(responses[0].rfind("ok mobilenet-0.25x@3 ", 0), 0u);
  EXPECT_NE(responses[0].find("cache=miss"), std::string::npos);
  EXPECT_EQ(responses[1].rfind("ok mobilenet-0.25x@3 ", 0), 0u);
  EXPECT_EQ(responses[2], responses[0].substr(0, responses[0].size() - 4) +
                              "hit")
      << "the repeat must be the first response with cache=miss -> hit";
  EXPECT_EQ(responses[3].rfind("protocol-error ", 0), 0u);
  EXPECT_EQ(responses[4].rfind("error no-such-network@1 ", 0), 0u);
  EXPECT_EQ(responses[5].rfind("error mobilenet-0.25x@3 ", 0), 0u);
  EXPECT_EQ(responses[6].rfind("stats ", 0), 0u);

  EXPECT_EQ(stats.requests, 7u);
  EXPECT_EQ(stats.runs, 5u);  // incl. the unresolvable network
  EXPECT_EQ(stats.protocol_errors, 1u);
  EXPECT_EQ(stats.responses_written, 7u);
}

TEST(SessionTest, IdenticalStreamsServeIdenticalBytesFromFreshServices) {
  // Determinism across service instances is what makes golden comparisons
  // (and the CI socket-vs-stdio diff) meaningful.
  SimulationService svc_a, svc_b;
  WorkloadCatalog catalog_a, catalog_b;
  EXPECT_EQ(serve_stdio(svc_a, catalog_a, scripted_stream()),
            serve_stdio(svc_b, catalog_b, scripted_stream()));
}

TEST(SessionTest, StatsIsABarrierOverPrecedingRequestsOnly) {
  SimulationService svc;
  WorkloadCatalog catalog;
  const std::vector<std::string> responses = serve_stdio(
      svc, catalog,
      {"run mobilenet-0.25x seed=3 td=16", "stats",
       "run mobilenet-0.25x seed=3 td=16", "stats"});

  ASSERT_EQ(responses.size(), 4u);
  // First stats: exactly the one preceding request, completed; nothing
  // later leaked in. Deterministic because the reader holds the barrier.
  EXPECT_EQ(responses[1],
            "stats hits=0 misses=1 evictions=0 entries=1 inflight=0");
  EXPECT_EQ(responses[3],
            "stats hits=1 misses=1 evictions=0 entries=1 inflight=0");
}

TEST(SessionTest, BatchedRunsEchoBatchAndKeySeparatelyInTheCache) {
  SimulationService svc;
  WorkloadCatalog catalog;
  const std::vector<std::string> responses = serve_stdio(
      svc, catalog,
      {"run mobilenet-0.25x seed=3 td=16",
       "run mobilenet-0.25x seed=3 td=16 batch=3",  // distinct key -> miss
       "run mobilenet-0.25x seed=3 td=16 batch=3",  // repeat -> hit
       "run mobilenet-0.25x seed=3 td=16 batch=0",  // protocol error
       "stats"});

  ASSERT_EQ(responses.size(), 5u);
  EXPECT_EQ(responses[0].find("batch="), std::string::npos) << responses[0];
  EXPECT_NE(responses[1].find(" batch=3 "), std::string::npos)
      << responses[1];
  EXPECT_NE(responses[1].find("cache=miss"), std::string::npos);
  EXPECT_NE(responses[2].find("cache=hit"), std::string::npos);
  EXPECT_EQ(responses[3].rfind("protocol-error bad batch '0'", 0), 0u)
      << responses[3];
  EXPECT_EQ(responses[4],
            "stats hits=1 misses=2 evictions=0 entries=2 inflight=0");

  // Batching amortizes setup, never arithmetic: every measurement token
  // of the batched line except the batch echo matches the batch=1 line.
  std::istringstream single(responses[0]), batched(responses[1]);
  std::string s, b;
  while (single >> s) {
    ASSERT_TRUE(static_cast<bool>(batched >> b));
    if (b == "batch=3") {
      ASSERT_TRUE(static_cast<bool>(batched >> b));
    }
    EXPECT_EQ(s, b);
  }
}

TEST(SessionTest, RecordedTrafficAlignsJobsWithOutcomes) {
  SimulationService svc;
  WorkloadCatalog catalog;
  SessionStats stats;
  (void)serve_stdio(svc, catalog, scripted_stream(), &stats,
                    /*record_traffic=*/true);

  // 5 run lines, 1 unresolvable -> 4 submitted jobs with outcomes.
  ASSERT_EQ(stats.jobs.size(), 4u);
  ASSERT_EQ(stats.outcomes.size(), 4u);
  for (std::size_t i = 0; i < stats.jobs.size(); ++i) {
    EXPECT_EQ(stats.jobs[i].name, stats.outcomes[i].name) << i;
  }
  EXPECT_TRUE(stats.outcomes[2].cache_hit);   // the repeat
  EXPECT_FALSE(stats.outcomes[3].ok);         // the infeasible point
}

TEST(WorkloadCatalogTest, ResolvesOncePerKeyAndThrowsForUnknownNames) {
  WorkloadCatalog catalog;
  const WorkloadCatalog::Workload& a = catalog.resolve("edeanet-64", 7);
  const WorkloadCatalog::Workload& b = catalog.resolve("edeanet-64", 7);
  EXPECT_EQ(&a, &b) << "same key must materialize exactly once";
  const WorkloadCatalog::Workload& c = catalog.resolve("edeanet-64", 8);
  EXPECT_NE(&a, &c) << "different seed is a different workload";
  EXPECT_THROW((void)catalog.resolve("not-a-network", 1), PreconditionError);
}

TEST(SocketTransportTest, LoopbackSessionIsBitIdenticalToStdio) {
  // The acceptance criterion of the layering refactor, in process: a TCP
  // client and the stdio driver see byte-identical responses for the
  // same request stream against equally fresh services.
  SimulationService stdio_svc;
  WorkloadCatalog stdio_catalog;
  const std::vector<std::string> expected =
      serve_stdio(stdio_svc, stdio_catalog, scripted_stream());

  SimulationService socket_svc;
  WorkloadCatalog socket_catalog;
  SocketTransportOptions options;
  options.max_sessions = 1;
  SocketTransport transport(options);
  std::thread server([&] {
    transport.serve([&](Stream& stream) {
      Session(socket_svc, socket_catalog).serve(stream);
    });
  });

  std::vector<std::string> responses;
  {
    std::unique_ptr<Stream> client =
        connect_socket("127.0.0.1", transport.port(), /*retry_ms=*/5000);
    for (const std::string& line : scripted_stream()) {
      ASSERT_TRUE(client->write_line(line));
    }
    client->close_write();
    std::string line;
    while (client->read_line(line)) responses.push_back(line);
  }
  server.join();

  EXPECT_EQ(responses, expected);
}

/// A raw loopback TCP client: the tests below need to send bytes that no
/// Stream would (a line without its '\n'). Reads time out after 10 s so
/// a server that waits for more input fails the test instead of hanging.
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  const timeval timeout{10, 0};
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

/// Sends as much of `bytes` as the peer accepts (stops on a reset).
void raw_send(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return;
    sent += static_cast<std::size_t>(n);
  }
}

/// Everything the peer sends until it closes (or resets) the connection.
std::string raw_read_to_end(int fd) {
  std::string received;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    received.append(chunk, static_cast<std::size_t>(n));
  }
  return received;
}

/// One session on a fresh service over an ephemeral port.
class OneSessionServer {
 public:
  OneSessionServer() : transport_(options()) {
    thread_ = std::thread([this] {
      transport_.serve([this](Stream& stream) {
        stats_ = Session(svc_, catalog_).serve(stream);
      });
    });
  }
  ~OneSessionServer() { join(); }

  [[nodiscard]] std::uint16_t port() const { return transport_.port(); }
  /// Waits for the session to end; its stats are valid afterwards.
  const SessionStats& join() {
    if (thread_.joinable()) thread_.join();
    return stats_;
  }

 private:
  static SocketTransportOptions options() {
    SocketTransportOptions options;
    options.max_sessions = 1;
    return options;
  }

  SimulationService svc_;
  WorkloadCatalog catalog_;
  SocketTransport transport_;
  SessionStats stats_;
  std::thread thread_;
};

const std::string kLineTooLong = "protocol-error line exceeds " +
                                 std::to_string(kMaxLineBytes) + " bytes\n";

TEST(SocketTransportTest, MebibyteLineWithoutNewlineGetsAnErrorThenEof) {
  OneSessionServer server;
  const int fd = raw_connect(server.port());
  // The writer may block once the server stops reading; the server's
  // close is what unblocks it.
  std::thread writer([fd] {
    raw_send(fd, "stats\n" + std::string(std::size_t{1} << 20, 'x'));
  });
  const std::string received = raw_read_to_end(fd);
  writer.join();
  ::close(fd);

  // The preceding request is answered first; the over-long line gets
  // exactly one protocol error in its own slot, then the connection ends.
  EXPECT_EQ(received,
            "stats hits=0 misses=0 evictions=0 entries=0 inflight=0\n" +
                kLineTooLong);
  const SessionStats& stats = server.join();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.protocol_errors, 1u);
}

TEST(SocketTransportTest, LineOneByteOverTheCapIsRefusedWithoutWaiting) {
  // The peer keeps the connection open and sends nothing more: the
  // server must decide from the first kMaxLineBytes + 1 bytes, never
  // buffering toward a newline that may not come.
  OneSessionServer server;
  const int fd = raw_connect(server.port());
  raw_send(fd, std::string(kMaxLineBytes + 1, 'x'));
  const std::string received = raw_read_to_end(fd);
  ::close(fd);
  EXPECT_EQ(received, kLineTooLong);
  EXPECT_EQ(server.join().protocol_errors, 1u);
}

TEST(SocketTransportTest, LineAtTheCapIsStillServed) {
  // A run line padded with blanks to exactly kMaxLineBytes bytes parses
  // like the unpadded line, so its reply must equal the stdio reference.
  const std::string request = "run mobilenet-0.25x seed=3 td=16";
  SimulationService stdio_svc;
  WorkloadCatalog stdio_catalog;
  const std::vector<std::string> expected =
      serve_stdio(stdio_svc, stdio_catalog, {request, "stats"});

  OneSessionServer server;
  std::vector<std::string> responses;
  {
    std::unique_ptr<Stream> client =
        connect_socket("127.0.0.1", server.port(), /*retry_ms=*/5000);
    std::string padded = request;
    padded.resize(kMaxLineBytes, ' ');
    ASSERT_TRUE(client->write_line(padded));
    ASSERT_TRUE(client->write_line("stats"));
    client->close_write();
    std::string line;
    while (client->read_line(line)) responses.push_back(line);
    EXPECT_FALSE(client->line_too_long());
  }
  EXPECT_EQ(responses, expected);
  EXPECT_EQ(server.join().protocol_errors, 0u);
}

TEST(SocketTransportTest, ConcurrentSessionsServeDisjointClientsCorrectly) {
  SimulationService svc;
  WorkloadCatalog catalog;
  SocketTransportOptions options;
  options.max_sessions = 3;
  SocketTransport transport(options);
  std::thread server([&] {
    transport.serve(
        [&](Stream& stream) { Session(svc, catalog).serve(stream); });
  });

  // Three clients with disjoint design points (different seeds), each
  // with an internal duplicate. Within a session the duplicate is always
  // a hit (coalesced or cached); across sessions nothing is shared, so
  // every client's response set is deterministic despite concurrency.
  std::vector<std::vector<std::string>> responses(3);
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      const std::string seed = std::to_string(100 + c);
      std::unique_ptr<Stream> client =
          connect_socket("localhost", transport.port(), /*retry_ms=*/5000);
      const std::vector<std::string> lines = {
          "run mobilenet-0.25x seed=" + seed + " td=16",
          "run mobilenet-0.25x seed=" + seed + " td=16",
      };
      for (const std::string& line : lines) {
        if (!client->write_line(line)) return;
      }
      client->close_write();
      std::string line;
      while (client->read_line(line)) {
        responses[static_cast<std::size_t>(c)].push_back(line);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.join();

  for (int c = 0; c < 3; ++c) {
    const auto& mine = responses[static_cast<std::size_t>(c)];
    const std::string name =
        "ok mobilenet-0.25x@" + std::to_string(100 + c) + " ";
    ASSERT_EQ(mine.size(), 2u) << "client " << c;
    EXPECT_EQ(mine[0].rfind(name, 0), 0u) << mine[0];
    EXPECT_NE(mine[0].find("cache=miss"), std::string::npos) << mine[0];
    EXPECT_EQ(mine[1].rfind(name, 0), 0u) << mine[1];
    EXPECT_NE(mine[1].find("cache=hit"), std::string::npos) << mine[1];
  }
  // 3 distinct points, each requested twice: exactly 3 simulations.
  const CacheStats stats = svc.cache_stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 3u);
}

TEST(SocketTransportTest, ShutdownUnblocksServe) {
  SocketTransport transport(SocketTransportOptions{});
  std::thread server([&] {
    transport.serve([](Stream&) { FAIL() << "no connection was made"; });
  });
  transport.shutdown();
  server.join();  // hangs forever if shutdown() cannot wake accept()
  SUCCEED();
}

TEST(SocketTransportTest, EphemeralPortIsReported) {
  SocketTransport transport(SocketTransportOptions{});
  EXPECT_NE(transport.port(), 0);
  transport.shutdown();
}

TEST(ConnectSocketTest, RejectsBadHostsAndRefusedConnections) {
  EXPECT_THROW((void)connect_socket("not a host", 1), PreconditionError);

  // Grab an ephemeral port, release it, then connect: refused (nothing
  // listens), surfaced as ResourceError once the (zero) retry budget ends.
  std::uint16_t dead_port = 0;
  {
    SocketTransport probe(SocketTransportOptions{});
    dead_port = probe.port();
    probe.shutdown();
  }
  EXPECT_THROW((void)connect_socket("127.0.0.1", dead_port), ResourceError);
}

}  // namespace
}  // namespace edea::service
