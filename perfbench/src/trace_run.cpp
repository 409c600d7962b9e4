// trace_run.cpp - the traced per-layer run.
//
// Part 1 replays a fixed prefix of the workload in process, twice: once
// untraced and once with spans around each layer call a session makes
// (protocol parse, catalog resolve, service submit, protocol format)
// under one root span per request. The prefix is fixed, so the service's
// cache counters repeat exactly for a seed.
//
// Part 2 times each layer's public calls directly: protocol, catalog,
// nn synthesis, core fingerprint, the service hit path, a stdio session,
// a loopback round trip, backend set-up, whole networks on both backends
// and each DSC layer of mobilenet-cifar. It also prints the model's
// simulated GOPS beside the paper's published figures.
#include <atomic>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#include "baseline/serialized_accelerator.hpp"
#include "common.hpp"
#include "core/accelerator.hpp"
#include "core/backend.hpp"
#include "core/sweep_runner.hpp"
#include "model/paper_data.hpp"
#include "nn/model_zoo.hpp"
#include "runs.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"
#include "service/simulation_service.hpp"
#include "service/transport.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using edea::core::SweepJob;
using edea::core::SweepOutcome;
using edea::service::SimulationService;
using edea::service::WorkloadCatalog;

// The layer probes use fixed networks, so their inputs (and the exact
// counts derived from them) do not depend on the run's seed.
constexpr std::uint64_t kNetworkSeed = 1;
constexpr std::uint64_t kColdSeed = 101;
constexpr std::uint64_t kSynthSeed = 201;

const std::vector<std::string> kNetworks{"mobilenet-cifar", "mobilenet-v2",
                                         "efficientnet-b0", "edeanet-64",
                                         "mobilenet-0.25x"};

/// Runs fn inside a span and returns its duration in ns.
template <typename F>
double timed_ns(Tracer& tracer, const char* name, F&& fn) {
  const std::int64_t t0 = now_ns();
  {
    auto span = tracer.span(name);
    fn();
  }
  return static_cast<double>(now_ns() - t0);
}

/// Median per-call time (us) of `calls` calls, over `batches` batches.
template <typename F>
double per_call_us(Tracer& tracer, const char* name, int batches, int calls,
                   F&& fn) {
  std::vector<double> samples;
  for (int b = 0; b < batches; ++b) {
    samples.push_back(timed_ns(tracer, name, [&] {
                        for (int c = 0; c < calls; ++c) fn(c);
                      }) /
                      calls * 1e-3);
  }
  return median(samples);
}

std::size_t replay_length(const std::string& workload) {
  if (workload == "dse-revisit") return 300;
  if (workload == "zoo-fresh") return 48;
  return 20000;
}

struct Replay {
  std::vector<std::string> lines;
  std::vector<std::uint64_t> digests;
  std::vector<double> latency_ns;
  std::vector<SweepJob> jobs;
  std::vector<char> miss;
  std::size_t setup = 0;  // lines[0, setup) are the workload's setup lines
  std::vector<SweepOutcome> outcomes;  // summaries only, for format timing
  edea::service::CacheStats stats;
  double wall_s = 0.0;
  std::unique_ptr<WorkloadCatalog> catalog;  // owns what `jobs` point to
};

/// The session's per-request path, from the benchmark's side: setup lines
/// first, then the stream prefix, with a window's worth of requests in
/// flight (one blocking thread each).
Replay replay(const RunOptions& options, Tracer& tracer) {
  auto workload = make_workload(options.workload, options.seed);
  Replay r;
  r.lines = workload->setup_lines();
  const std::size_t setup = r.lines.size();
  r.setup = setup;
  for (std::size_t i = 0; i < replay_length(options.workload); ++i) {
    std::string line;
    workload->next(static_cast<int>(i % 2), &line);
    r.lines.push_back(std::move(line));
  }
  const std::size_t n = r.lines.size();
  r.digests.assign(n, 0);
  r.latency_ns.assign(n, 0.0);
  r.jobs.assign(n, SweepJob{});
  r.miss.assign(n, 0);
  r.outcomes.assign(std::min<std::size_t>(n, 1000), SweepOutcome{});
  r.catalog = std::make_unique<WorkloadCatalog>();
  SimulationService service;

  const auto serve_one = [&](std::size_t i) {
    const std::uint64_t rid = i + 1;
    const std::int64_t t0 = now_ns();
    {
      auto root = tracer.span("request", rid);
      edea::service::ParsedLine parsed;
      {
        auto span = tracer.span("protocol.parse", rid);
        parsed = edea::service::parse_request_line(r.lines[i]);
      }
      const edea::service::Request& q = parsed.request;
      SweepJob job;
      job.name = q.job_name();
      job.config = q.config;
      job.backend = q.backend;
      job.batch = q.batch;
      job.dilation = q.dilation;
      job.depth_multiplier = q.depth_multiplier;
      SweepOutcome outcome;
      try {
        auto span = tracer.span("catalog.resolve", rid);
        const WorkloadCatalog::Workload& w = r.catalog->resolve(
            q.network, q.seed, q.dilation, q.depth_multiplier);
        job.layers = &w.layers;
        job.input = &w.input;
        job.fingerprint = w.fingerprint;
      } catch (const std::exception& e) {
        // As a session answers a workload it cannot synthesize.
        outcome.name = job.name;
        outcome.config = job.config;
        outcome.backend = job.backend;
        outcome.batch = job.batch;
        outcome.dilation = job.dilation;
        outcome.depth_multiplier = job.depth_multiplier;
        outcome.error = e.what();
      }
      if (job.layers != nullptr) {
        auto span = tracer.span("service.submit", rid);
        outcome = service.submit(job).get();
        r.miss[i] = outcome.cache_hit ? 0 : 1;
      }
      std::string text;
      {
        auto span = tracer.span("protocol.format", rid);
        text = edea::service::format_outcome_line(outcome);
      }
      r.digests[i] = reply_digest(text);
      r.jobs[i] = job;
      if (i < r.outcomes.size()) {
        outcome.result = {};
        r.outcomes[i] = std::move(outcome);
      }
    }
    r.latency_ns[i] = static_cast<double>(now_ns() - t0);
  };
  const unsigned threads =
      static_cast<unsigned>(std::min(8, 2 * workload->window()));
  const auto phase = [&](std::size_t begin, std::size_t end) {
    std::atomic<std::size_t> cursor{begin};
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        for (std::size_t i; (i = cursor.fetch_add(1)) < end;) serve_one(i);
      });
    }
    for (std::thread& t : pool) t.join();
  };
  const std::int64_t start = now_ns();
  phase(0, setup);
  phase(setup, n);
  r.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  r.stats = service.cache_stats();
  return r;
}

}  // namespace

int run_trace_mode(const RunOptions& options) {
  std::uint64_t failed = 0;
  Metrics m;
  Tracer off(false);
  Tracer tracer(true);

  // --- part 1: replay ------------------------------------------------------
  const Replay plain = replay(options, off);
  const Replay traced = replay(options, tracer);
  for (std::size_t i = 0; i < plain.digests.size(); ++i) {
    failed += plain.digests[i] != traced.digests[i] ? 1 : 0;
  }
  m.set("trace.untraced_wall_s", plain.wall_s, "s");
  m.set("trace.traced_wall_s", traced.wall_s, "s");
  for (const auto& [layer, ns] : tracer.request_self_ns()) {
    m.set("self_ms." + layer, ns * 1e-6, "ms");
  }
  const auto& st = traced.stats;
  m.set("service.misses", static_cast<double>(st.misses), "count");
  m.set("service.evictions", static_cast<double>(st.evictions), "count");
  m.set("service.hit_ratio",
        static_cast<double>(st.hits) / static_cast<double>(st.hits + st.misses),
        "ratio");
  // Queue wait: client latency minus the same design point simulated
  // alone, over the first misses of the traced stream (then of the setup
  // lines, for a stream that only hits).
  std::vector<double> wait_ms;
  const std::size_t n = traced.jobs.size();
  for (std::size_t k = 0; k < n && wait_ms.size() < 12; ++k) {
    const std::size_t i = (traced.setup + k) % n;
    if (traced.miss[i] == 0) continue;
    const double alone = timed_ns(tracer, "core.evaluate_job", [&] {
      (void)edea::core::evaluate_job(traced.jobs[i]);
    });
    wait_ms.push_back((traced.latency_ns[i] - alone) * 1e-6);
  }
  m.set("service.queue_wait_ms", median(wait_ms), "ms");

  // --- part 2: layer probes ------------------------------------------------
  std::size_t sink = 0;  // keeps timed results observable
  const std::size_t sample =
      std::min<std::size_t>(traced.lines.size(), traced.outcomes.size());
  m.set("protocol.parse_us",
        per_call_us(tracer, "protocol.parse", 15, static_cast<int>(sample),
                    [&](int i) {
                      sink += edea::service::parse_request_line(
                                  traced.lines[static_cast<std::size_t>(i)])
                                  .request.seed;
                    }),
        "us");
  m.set("protocol.format_us",
        per_call_us(tracer, "protocol.format", 15, static_cast<int>(sample),
                    [&](int i) {
                      sink += edea::service::format_outcome_line(
                                  traced.outcomes[static_cast<std::size_t>(i)])
                                  .size();
                    }),
        "us");

  WorkloadCatalog catalog;
  std::vector<double> cold_ms;
  for (std::uint64_t k = 0; k < 5; ++k) {
    cold_ms.push_back(timed_ns(tracer, "catalog.resolve_cold", [&] {
                        (void)catalog.resolve("mobilenet-cifar", kColdSeed + k);
                      }) *
                      1e-6);
  }
  m.set("catalog.resolve_cold_ms", median(cold_ms), "ms");
  m.set("catalog.resolve_warm_us",
        per_call_us(tracer, "catalog.resolve_warm", 15, 1000,
                    [&](int) {
                      sink += catalog.resolve("mobilenet-cifar", kColdSeed)
                                  .layers.size();
                    }),
        "us");
  const auto cifar_specs = edea::nn::zoo_specs("mobilenet-cifar");
  std::vector<double> synth_ms;
  for (std::uint64_t k = 0; k < 5; ++k) {
    synth_ms.push_back(timed_ns(tracer, "nn.synthesize", [&] {
                         sink += edea::nn::make_random_quant_network(
                                     cifar_specs, kSynthSeed + k)
                                     .size();
                       }) *
                       1e-6);
  }
  m.set("nn.synthesize_ms", median(synth_ms), "ms");
  const WorkloadCatalog::Workload& cifar =
      catalog.resolve("mobilenet-cifar", kColdSeed);
  std::vector<double> fingerprint_ms;
  for (int k = 0; k < 9; ++k) {
    fingerprint_ms.push_back(timed_ns(tracer, "core.fingerprint", [&] {
                               sink += edea::core::network_fingerprint(
                                   cifar.layers, cifar.input);
                             }) *
                             1e-6);
  }
  m.set("core.fingerprint_ms", median(fingerprint_ms), "ms");

  // The service hit path sessions use: submit_streaming on a warm key,
  // delivered inline.
  {
    SimulationService service;
    const auto& small = catalog.resolve("mobilenet-0.25x", kNetworkSeed);
    SweepJob job;
    job.name = "mobilenet-0.25x@1";
    job.layers = &small.layers;
    job.input = &small.input;
    job.fingerprint = small.fingerprint;
    (void)service.submit(job).get();
    const std::uint64_t lane = service.new_session_id();
    std::size_t delivered = 0;
    m.set("service.hit_us",
          per_call_us(tracer, "service.hit", 15, 1000,
                      [&](int) {
                        (void)service.submit_streaming(
                            job, lane, [&](SweepOutcome) { ++delivered; });
                      }),
          "us");
    if (delivered != 15 * 1000) ++failed;  // every warm submit is inline
  }

  // A stdio session and a loopback round trip over a warm service: the
  // zipf-hits table, prefilled through a session.
  {
    SimulationService service;
    WorkloadCatalog warm;
    auto zipf = make_workload("zipf-hits", options.seed);
    std::string text;
    for (const std::string& line : zipf->setup_lines()) text += line + '\n';
    {
      std::istringstream in(text);
      std::ostringstream out;
      edea::service::StdioStream stream(in, out);
      (void)edea::service::Session(service, warm).serve(stream);
    }
    constexpr int kRequests = 20000;
    text.clear();
    for (int i = 0; i < kRequests; ++i) {
      std::string line;
      zipf->next(0, &line);
      text += line + '\n';
    }
    std::vector<double> per_req_us;
    for (int rep = 0; rep < 3; ++rep) {
      std::istringstream in(text);
      std::ostringstream out;
      edea::service::StdioStream stream(in, out);
      per_req_us.push_back(timed_ns(tracer, "session.serve", [&] {
                             const auto stats =
                                 edea::service::Session(service, warm)
                                     .serve(stream);
                             if (stats.responses_written != kRequests) ++failed;
                           }) /
                           kRequests * 1e-3);
    }
    m.set("session.stdio_us_per_req", median(per_req_us), "us");

    edea::service::SocketTransportOptions transport_options;
    transport_options.max_sessions = 1;
    edea::service::SocketTransport transport(transport_options);
    std::thread server([&] {
      transport.serve([&](edea::service::Stream& stream) {
        (void)edea::service::Session(service, warm).serve(stream);
      });
    });
    {
      auto client =
          edea::service::connect_socket("127.0.0.1", transport.port(), 2000);
      std::vector<double> rtt_us;
      std::string reply;
      for (int k = 0; k < 420; ++k) {
        const double ns = timed_ns(tracer, "transport.stats_rtt", [&] {
          if (!client->write_line("stats") || !client->read_line(reply)) {
            ++failed;
          }
        });
        if (k >= 20) rtt_us.push_back(ns * 1e-3);
      }
      m.set("transport.idle_rtt_us", median(rtt_us), "us");
      client->close_write();
      while (client->read_line(reply)) {
      }
    }
    server.join();
  }

  // --- simulation: whole networks on both backends ------------------------
  const edea::core::EdeaConfig paper = edea::core::EdeaConfig::paper();
  std::int64_t sim_cycles[2] = {0, 0};
  std::vector<double> setup_ms;
  double cifar_run_ns = 0.0;
  std::int64_t cifar_cycles = 0;
  edea::core::NetworkRunResult cifar_edea;
  for (const std::string& net : kNetworks) {
    const auto& w = catalog.resolve(net, kNetworkSeed);
    std::uint64_t out_hash[2] = {0, 0};
    for (int b = 0; b < 2; ++b) {
      const std::string id = b == 0 ? "edea" : "serialized";
      const std::string layer = b == 0 ? "core" : "baseline";
      std::vector<double> run_ms;
      for (int rep = 0; rep < 3; ++rep) {
        std::unique_ptr<edea::core::AcceleratorBackend> backend;
        const double make_ns = timed_ns(tracer, "core.make_backend", [&] {
          backend = edea::core::make_backend(id, paper);
        });
        edea::core::NetworkRunResult result;
        run_ms.push_back(
            timed_ns(tracer, b == 0 ? "core.run_network" : "baseline.run_network",
                     [&] { result = backend->run_network(w.layers, w.input); }) *
            1e-6);
        const double teardown_ns =
            timed_ns(tracer, "core.teardown", [&] { backend.reset(); });
        if (b == 0 && net == "mobilenet-cifar") {
          setup_ms.push_back((make_ns + teardown_ns) * 1e-6);
        }
        if (rep == 0) {
          sim_cycles[b] += result.total_cycles();
          out_hash[b] = fnv1a(std::string_view(
              reinterpret_cast<const char*>(result.output.storage().data()),
              result.output.storage().size()));
          if (b == 0 && net == "mobilenet-cifar") {
            cifar_cycles = result.total_cycles();
            cifar_edea = std::move(result);
          }
        }
      }
      m.set(layer + ".run_network_ms." + net, median(run_ms), "ms");
      if (b == 0 && net == "mobilenet-cifar") cifar_run_ns = median(run_ms) * 1e6;
    }
    // The backends share all arithmetic: outputs are bit-exact.
    if (out_hash[0] != out_hash[1]) {
      std::cerr << "backend outputs differ on " << net << "\n";
      ++failed;
    }
  }
  m.set("core.backend_setup_ms", median(setup_ms), "ms");
  m.set("core.sim_cycles", static_cast<double>(sim_cycles[0]), "count");
  m.set("baseline.sim_cycles", static_cast<double>(sim_cycles[1]), "count");
  m.set("core.host_ns_per_sim_cycle",
        cifar_run_ns / static_cast<double>(cifar_cycles), "ns");

  // --- simulation: each DSC layer of mobilenet-cifar ------------------------
  {
    const auto& w = catalog.resolve("mobilenet-cifar", kNetworkSeed);
    const std::size_t layers = w.layers.size();
    std::vector<std::vector<double>> core_ms(layers), base_ms(layers);
    for (int rep = 0; rep < 3; ++rep) {
      edea::core::EdeaAccelerator edea_acc(paper);
      edea::baseline::SerializedDscAccelerator serial_acc(paper);
      edea::nn::Int8Tensor x = w.input;
      edea::nn::Int8Tensor y = w.input;
      for (std::size_t i = 0; i < layers; ++i) {
        edea::core::LayerRunResult a;
        core_ms[i].push_back(timed_ns(tracer, "core.run_layer", [&] {
                               a = edea_acc.run_layer(w.layers[i], x);
                             }) *
                             1e-6);
        edea::baseline::SerializedLayerResult s;
        base_ms[i].push_back(timed_ns(tracer, "baseline.run_layer", [&] {
                               s = serial_acc.run_layer(w.layers[i], y);
                             }) *
                             1e-6);
        if (a.timing.total_cycles != cifar_edea.layers[i].timing.total_cycles) {
          ++failed;  // a layer alone must time exactly as inside the network
        }
        x = std::move(a.output);
        y = std::move(s.common.output);
      }
      if (x.storage() != y.storage()) ++failed;
    }
    for (std::size_t i = 0; i < layers; ++i) {
      m.set("core.layer_ms." + std::to_string(i), median(core_ms[i]), "ms");
      m.set("baseline.layer_ms." + std::to_string(i), median(base_ms[i]), "ms");
    }
  }

  // --- model accuracy -------------------------------------------------------
  std::ostringstream table;
  table << std::fixed << std::setprecision(2)
        << "model accuracy: mobilenet-cifar at the paper config, simulated "
           "GOPS @ 1 GHz beside model/paper_data.hpp. The model is validated "
           "only against the paper's published figures.\n";
  for (std::size_t i = 0; i < cifar_edea.layers.size(); ++i) {
    const double gops = cifar_edea.layers[i].throughput_gops(1.0);
    m.set("model.gops." + std::to_string(i), gops, "GOPS");
    table << "  layer " << std::setw(2) << i << "  simulated " << std::setw(8)
          << gops << "  paper " << std::setw(8)
          << edea::model::kPaperThroughputGops[i] << "\n";
  }
  const double avg = cifar_edea.average_throughput_gops(1.0);
  m.set("model.avg_gops", avg, "GOPS");
  table << "  average   simulated " << std::setw(8) << avg << "  paper "
        << std::setw(8) << edea::model::kPaperAvgThroughputGops << "\n";
  std::cerr << table.str();

  if (!options.trace_out.empty() && !tracer.write(options.trace_out)) {
    std::cerr << "cannot write " << options.trace_out << "\n";
  }
  std::cerr << "perfbench trace " << options.workload
            << " seed=" << options.seed << ": " << host_stamp() << "\n"
            << "  replay " << traced.lines.size() << " requests, untraced "
            << plain.wall_s << " s, traced " << traced.wall_s << " s; sink "
            << sink % 10 << "\n";
  for (const auto& [name, v] : m.values()) {
    std::cerr << "  " << name << " = " << v.first << " " << v.second << "\n";
  }
  const bool correct = failed == 0;
  std::cout << result_line(correct, traced.lines.size(), failed, m)
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace perfbench
