#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "common.hpp"
#include "load_client.hpp"
#include "reference.hpp"
#include "runs.hpp"
#include "server_process.hpp"
#include "service/transport.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::string host_stamp() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  std::string model = "unknown";
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
      break;
    }
  }
  return "nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         " cpu=\"" + model + "\" build=" + PERFBENCH_BUILD_TYPE;
}

int run_load_mode(const RunOptions& options) {
  const std::vector<std::string> setup_lines =
      make_workload(options.workload, options.seed)->setup_lines();

  // Set-up: spawn to ready, plus warm-up and prefill, five times for a
  // median. Every repetition but the last is stopped; the last one serves
  // the measured window.
  constexpr int kSetups = 5;
  std::vector<double> setup_s;
  std::unique_ptr<ServerProcess> server;
  std::vector<std::uint64_t> setup_digests;
  for (int r = 0; r < kSetups; ++r) {
    server.reset();
    const std::int64_t t0 = now_ns();
    server = std::make_unique<ServerProcess>(options.server);
    setup_digests = send_all(*open_unordered(server->port()), setup_lines);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  auto workload = make_workload(options.workload, options.seed);
  std::vector<std::unique_ptr<edea::service::Stream>> streams;
  for (int c = 0; c < 2; ++c) streams.push_back(open_unordered(server->port()));
  // Peak RSS is read once a fixed number of replies has arrived, so that
  // memory that grows with the requests served (the catalog) is compared
  // at the same stream prefix whatever the throughput; at the end if the
  // run never gets there.
  double rss_mb = 0.0;
  LoadHooks hooks;
  hooks.milestone = workload->rss_probe_after();
  hooks.on_milestone = [&] { rss_mb = server->rss_peak_mb(); };
  hooks.on_stuck = [&] { server->kill_now(); };
  constexpr std::size_t kBins = 10;
  const LoadResult load =
      run_load(*workload, streams, options.seconds, kBins, hooks);
  streams.clear();

  std::uint64_t hits = 0, misses = 0, evictions = 0;
  bool stats_ok = false;
  try {
    auto stats = edea::service::connect_socket("127.0.0.1", server->port());
    std::string reply;
    stats_ok = stats->write_line("stats") && stats->read_line(reply) &&
               parse_stats(reply, &hits, &misses, &evictions);
  } catch (const std::exception& e) {
    std::cerr << "stats: " << e.what() << "\n";
  }
  if (rss_mb == 0.0) rss_mb = server->rss_peak_mb();
  server.reset();

  // Reference, outside every timed interval: each distinct line sent,
  // setup lines included.
  std::set<std::uint32_t> used;
  std::uint64_t sent = 0, hit_replies = 0, stray = 0;
  for (const ConnectionLog& log : load.connections) {
    used.insert(log.line.begin(), log.line.end());
    sent += log.sent;
    stray += log.stray_replies;
    for (std::uint64_t i = 0; i < log.sent; ++i) {
      hit_replies += (log.flags[i] & ConnectionLog::kHit) ? 1 : 0;
    }
  }
  std::vector<std::string> ref_lines;
  std::map<std::string, std::size_t> ref_of;
  const auto ref_slot = [&](const std::string& line) {
    const auto [it, fresh] = ref_of.emplace(line, ref_lines.size());
    if (fresh) ref_lines.push_back(line);
    return it->second;
  };
  for (const std::string& line : setup_lines) (void)ref_slot(line);
  std::map<std::uint32_t, std::size_t> stream_ref;
  for (const std::uint32_t index : used) {
    stream_ref[index] = ref_slot(workload->line(index));
  }
  const std::int64_t ref_start = now_ns();
  const Reference reference = serve_reference(ref_lines);
  const std::vector<std::uint64_t>& ref = reference.digests;
  const double ref_s = static_cast<double>(now_ns() - ref_start) * 1e-9;

  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < setup_lines.size(); ++i) {
    failed += setup_digests[i] != ref[ref_of.at(setup_lines[i])] ? 1 : 0;
  }
  // The window is cut into ten equal bins by reply time. Only the bins
  // with host steal at or below the median count - the half (at least)
  // during which the hypervisor took the fewest vCPU cycles - because
  // steal, not the program, is what moves a run on a shared host.
  // Throughput is the median reply rate over those bins (replies after
  // the deadline excluded). Latency percentiles pool those bins, adding
  // the next quietest until at least 1000 replies are pooled, so p99 has
  // ten samples beyond it; replies after the deadline count in the last
  // bin.
  const double bin_ns = options.seconds * 1e9 / kBins;
  std::vector<double> bin_replies(kBins, 0.0);
  std::vector<std::vector<double>> bin_latency_ms(kBins);
  std::uint64_t completed = 0;
  for (const ConnectionLog& log : load.connections) {
    for (std::uint64_t i = 0; i < log.sent; ++i) {
      const bool answered = log.recv_ns[i] != 0;
      const bool bad_kind = (log.flags[i] & ~ConnectionLog::kHit) != 0;
      if (!answered || bad_kind ||
          log.digest[i] != ref[stream_ref.at(log.line[i])]) {
        ++failed;
        continue;
      }
      ++completed;
      const auto bin = static_cast<std::size_t>(
          static_cast<double>(log.recv_ns[i] - load.start_ns) / bin_ns);
      if (bin < kBins) bin_replies[bin] += 1.0;
      bin_latency_ms[std::min(bin, kBins - 1)].push_back(
          static_cast<double>(log.recv_ns[i] - log.send_ns[i]) * 1e-6);
    }
  }
  std::vector<std::size_t> quiet(kBins);
  for (std::size_t b = 0; b < kBins; ++b) quiet[b] = b;
  std::stable_sort(quiet.begin(), quiet.end(), [&](std::size_t a, std::size_t b) {
    return load.bin_steal[a] < load.bin_steal[b];
  });
  const double steal_cut = median(load.bin_steal);
  std::vector<double> kept_rates;
  std::vector<double> pooled_ms;
  for (const std::size_t b : quiet) {
    const bool kept = load.bin_steal[b] <= steal_cut;
    if (!kept && pooled_ms.size() >= 1000) break;
    if (kept) kept_rates.push_back(bin_replies[b] / (bin_ns * 1e-9));
    pooled_ms.insert(pooled_ms.end(), bin_latency_ms[b].begin(),
                     bin_latency_ms[b].end());
  }
  std::sort(pooled_ms.begin(), pooled_ms.end());

  // Exact cache accounting: one miss per distinct key, every other
  // request that reached the service a hit. Distinct lines are distinct
  // keys, and the streams keep every revisited key resident in the
  // server's 256-entry LRU. The reference counts the keys that reach the
  // service; a line whose workload cannot be synthesized never does, and
  // neither do its repeats.
  const std::uint64_t distinct = reference.misses;
  const std::uint64_t unsynthesizable = ref_lines.size() - distinct;
  const std::uint64_t attempted = setup_lines.size() + sent;
  bool correct = failed == 0 && stray == 0 && stats_ok;
  if (stats_ok && (misses != distinct || hits != hit_replies)) {
    std::cerr << "stats mismatch: server hits=" << hits << " misses=" << misses
              << ", expected hits=" << hit_replies << " misses=" << distinct
              << "\n";
    correct = false;
  }
  if (workload->stream_only_hits() && hit_replies != sent) {
    std::cerr << "expected every stream request to hit, " << sent - hit_replies
              << " did not\n";
    correct = false;
  }

  const double window_s =
      static_cast<double>(load.end_ns - load.start_ns) * 1e-9;
  Metrics metrics;
  metrics.set("throughput_rps", median(kept_rates), "1/s");
  metrics.set("latency_p50_ms", sorted_percentile(pooled_ms, 50), "ms");
  metrics.set("latency_p95_ms", sorted_percentile(pooled_ms, 95), "ms");
  metrics.set("latency_p99_ms", sorted_percentile(pooled_ms, 99), "ms");
  metrics.set("ok_rate",
              1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
              "ratio");
  metrics.set("server_rss_peak_mb", rss_mb, "MiB");
  metrics.set("setup_s", median(setup_s), "s");

  std::cerr << "perfbench load " << options.workload << " seed=" << options.seed
            << ": " << host_stamp() << "\n"
            << "  requests=" << sent << " completed=" << completed
            << " failed=" << failed << " stray=" << stray << " window_s="
            << window_s << " hit_share="
            << (sent ? static_cast<double>(hit_replies) / sent : 0.0) << "\n"
            << "  bins kept=" << kept_rates.size() << "/" << kBins
            << ", latency samples=" << pooled_ms.size() << " (beyond p99 "
            << pooled_ms.size() / 100 << "), host steal ticks per bin:";
  for (const double t : load.bin_steal) std::cerr << " " << t;
  std::cerr << "\n"
            << "  server stats hits=" << hits << " misses=" << misses
            << " evictions=" << evictions << " (distinct keys " << distinct
            << ", unsynthesizable lines " << unsynthesizable << ")\n"
            << "  reference: " << ref_lines.size() << " lines in " << ref_s
            << " s\n";
  for (const auto& [name, v] : metrics.values()) {
    std::cerr << "  " << name << " = " << v.first << " " << v.second << "\n";
  }
  std::cout << result_line(correct, attempted, failed, metrics) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace perfbench
