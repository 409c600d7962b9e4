#include "load_client.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "service/transport.hpp"

namespace perfbench {

namespace {

/// The id of the first `run` line on a connection: `mode unordered`
/// answers as id 1.
constexpr std::uint64_t kFirstId = 2;

/// Splits an unordered reply `id=<n> <payload>` (or a self-identifying
/// `busy id=<n> ...`). Returns false for anything else.
bool split_reply(const std::string& line, std::uint64_t* id,
                 std::string_view* payload) {
  std::size_t pos = 0;
  if (line.compare(0, 3, "id=") == 0) {
    pos = 3;
  } else if (line.compare(0, 8, "busy id=") == 0) {
    pos = 8;
  } else {
    return false;
  }
  std::uint64_t value = 0;
  const std::size_t digits = pos;
  while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
    value = value * 10 + static_cast<std::uint64_t>(line[pos] - '0');
    ++pos;
  }
  if (pos == digits || pos >= line.size() || line[pos] != ' ') return false;
  *id = value;
  *payload = line.compare(0, 5, "busy ") == 0
                 ? std::string_view(line)
                 : std::string_view(line).substr(pos + 1);
  return true;
}

std::uint8_t classify(std::string_view payload) {
  using F = ConnectionLog::Flag;
  if (payload.substr(0, 15) == "protocol-error ") return F::kProtocolError;
  if (payload.substr(0, 5) == "busy ") return F::kBusy;
  if (payload.substr(0, 3) != "ok " && payload.substr(0, 6) != "error ") {
    return F::kUnexpected;
  }
  return payload.find(" cache=hit") != std::string_view::npos ? F::kHit : 0;
}

/// Steal ticks of all vCPUs so far (the 8th field of /proc/stat's `cpu`
/// line); 0 where the kernel does not report it.
double read_steal_ticks() {
  unsigned long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  if (FILE* f = std::fopen("/proc/stat", "r")) {
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) != 8) {
      v[7] = 0;
    }
    std::fclose(f);
  }
  return static_cast<double>(v[7]);
}

struct Connection {
  edea::service::Stream* stream = nullptr;
  ConnectionLog log;
  std::atomic<std::uint64_t> published{0};
  std::mutex mutex;
  std::condition_variable cv;
  std::uint64_t received = 0;  // guarded by mutex
  std::int64_t last_reply_ns = 0;
};

void write_loop(Workload& workload, Connection& c, int conn,
                std::chrono::steady_clock::time_point deadline,
                std::uint64_t capacity) {
  const std::uint64_t window = static_cast<std::uint64_t>(workload.window());
  const std::uint64_t refill = static_cast<std::uint64_t>(workload.refill());
  ConnectionLog& log = c.log;
  std::vector<std::string> batch;
  for (;;) {
    std::uint64_t free = 0;
    {
      std::unique_lock<std::mutex> lock(c.mutex);
      const bool ready = c.cv.wait_until(lock, deadline, [&] {
        return window - (log.sent - c.received) >= refill;
      });
      if (!ready) break;
      free = window - (log.sent - c.received);
    }
    if (std::chrono::steady_clock::now() >= deadline) break;
    free = std::min(free, capacity - log.sent);
    if (free == 0) break;
    batch.resize(free);
    for (std::string& line : batch) {
      log.line.push_back(workload.next(conn, &line));
    }
    const std::int64_t t = now_ns();
    log.send_ns.insert(log.send_ns.end(), free, t);
    log.recv_ns.insert(log.recv_ns.end(), free, 0);
    log.digest.insert(log.digest.end(), free, 0);
    log.flags.insert(log.flags.end(), free, 0);
    log.sent += free;
    c.published.store(log.sent, std::memory_order_release);
    if (!c.stream->write_lines(batch)) break;
  }
  // Half-close: the server answers what it has, then closes, which ends
  // the reader.
  c.stream->close_write();
}

void read_loop(Connection& c, std::atomic<std::uint64_t>& replies,
               const LoadHooks& hooks) {
  ConnectionLog& log = c.log;
  std::string line;
  while (c.stream->read_line(line)) {
    const std::int64_t t = now_ns();
    std::uint64_t id = 0;
    std::string_view payload;
    if (!split_reply(line, &id, &payload) || id < kFirstId ||
        id - kFirstId >= c.published.load(std::memory_order_acquire)) {
      ++log.stray_replies;
      continue;
    }
    const std::size_t i = id - kFirstId;
    log.recv_ns[i] = t;
    log.digest[i] = reply_digest(payload);
    log.flags[i] = classify(payload);
    c.last_reply_ns = t;
    if (replies.fetch_add(1) + 1 == hooks.milestone && hooks.on_milestone) {
      hooks.on_milestone();
    }
    {
      const std::lock_guard<std::mutex> lock(c.mutex);
      ++c.received;
    }
    c.cv.notify_one();
  }
}

}  // namespace

std::unique_ptr<edea::service::Stream> open_unordered(std::uint16_t port) {
  auto stream = edea::service::connect_socket("127.0.0.1", port, 2000);
  std::string reply;
  if (!stream->write_line("mode unordered") || !stream->read_line(reply) ||
      reply != "id=1 mode unordered") {
    throw std::runtime_error("server refused unordered mode: " + reply);
  }
  return stream;
}

std::vector<std::uint64_t> send_all(edea::service::Stream& stream,
                                    const std::vector<std::string>& lines) {
  std::vector<std::uint64_t> digests(lines.size(), 0);
  if (!stream.write_lines(lines)) return digests;
  std::string reply;
  for (std::size_t n = 0; n < lines.size() && stream.read_line(reply); ++n) {
    std::uint64_t id = 0;
    std::string_view payload;
    if (split_reply(reply, &id, &payload) && id >= kFirstId &&
        id - kFirstId < lines.size() && classify(payload) <= 1) {
      digests[id - kFirstId] = reply_digest(payload);
    }
  }
  return digests;
}

LoadResult run_load(Workload& workload,
                    std::vector<std::unique_ptr<edea::service::Stream>>& streams,
                    double seconds, std::size_t bins,
                    const LoadHooks& hooks) {
  // Room for 1M requests per connection-second: reserved, not touched, so
  // only what is sent becomes resident - and no reallocation can move an
  // element the reader is writing.
  const auto capacity = static_cast<std::uint64_t>(seconds * 1e6) + 1024;
  std::vector<std::unique_ptr<Connection>> conns;
  for (auto& stream : streams) {
    auto c = std::make_unique<Connection>();
    c->stream = stream.get();
    c->log.line.reserve(capacity);
    c->log.send_ns.reserve(capacity);
    c->log.recv_ns.reserve(capacity);
    c->log.digest.reserve(capacity);
    c->log.flags.reserve(capacity);
    conns.push_back(std::move(c));
  }

  LoadResult result;
  result.start_ns = now_ns();
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * 1e9));
  double steal = read_steal_ticks();

  std::atomic<std::uint64_t> replies{0};
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t readers_done = 0;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < conns.size(); ++i) {
    Connection& c = *conns[i];
    threads.emplace_back([&, i] {
      write_loop(workload, c, static_cast<int>(i), deadline, capacity);
    });
    threads.emplace_back([&] {
      read_loop(c, replies, hooks);
      {
        const std::lock_guard<std::mutex> lock(done_mutex);
        ++readers_done;
      }
      done_cv.notify_all();
    });
  }
  for (std::size_t b = 1; b <= bins; ++b) {
    std::this_thread::sleep_until(start + (deadline - start) * b / bins);
    const double now = read_steal_ticks();
    result.bin_steal.push_back(now - steal);
    steal = now;
  }
  {
    std::unique_lock<std::mutex> lock(done_mutex);
    const bool drained = done_cv.wait_until(
        lock, deadline + std::chrono::seconds(60),
        [&] { return readers_done == conns.size(); });
    if (!drained && hooks.on_stuck) hooks.on_stuck();
  }
  for (std::thread& t : threads) t.join();

  result.end_ns = result.start_ns;
  for (auto& c : conns) {
    result.end_ns = std::max(result.end_ns, c->last_reply_ns);
    result.connections.push_back(std::move(c->log));
  }
  return result;
}

bool parse_stats(const std::string& line, std::uint64_t* hits,
                 std::uint64_t* misses, std::uint64_t* evictions) {
  unsigned long long h = 0, m = 0, e = 0;
  if (std::sscanf(line.c_str(), "stats hits=%llu misses=%llu evictions=%llu",
                  &h, &m, &e) != 3) {
    return false;
  }
  *hits = h;
  *misses = m;
  *evictions = e;
  return true;
}

}  // namespace perfbench
