// bench_micro_kernels - google-benchmark microbenchmarks of the simulator
// hot paths: engine steps, the Non-Conv unit, quantization, the golden
// reference convolutions, backend-level network runs, and the simulation
// service's request latencies. These measure *simulator* (host)
// performance, not modeled hardware performance - useful when extending
// the library.
//
// `--json PATH` (ours, consumed before Google Benchmark sees argv) also
// emits a machine-readable summary - one object per benchmark with its
// real/cpu time and iteration count - which is what CI archives as
// BENCH_micro.json.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/accelerator.hpp"
#include "core/backend.hpp"
#include "core/dwc_engine.hpp"
#include "core/pwc_engine.hpp"
#include "core/sweep_runner.hpp"
#include "nn/arena.hpp"
#include "nn/layers.hpp"
#include "nn/model_zoo.hpp"
#include "nn/ops.hpp"
#include "nn/quant.hpp"
#include "service/simulation_service.hpp"
#include "util/random.hpp"

namespace {

using namespace edea;

void BM_DwcEngineStep(benchmark::State& state) {
  const core::EdeaConfig cfg = core::EdeaConfig::paper();
  core::DwcEngine engine(cfg);
  Rng rng(1);
  std::vector<std::int8_t> w(static_cast<std::size_t>(9 * cfg.td));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  engine.load_weights(w, cfg.td);
  core::DwcWindow window;
  window.extent = 4;
  window.channels = cfg.td;
  window.values.resize(static_cast<std::size_t>(16 * cfg.td));
  for (auto& v : window.values) {
    v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.step(window, 1));
  }
  state.SetItemsProcessed(state.iterations() * engine.mac_count());
}
BENCHMARK(BM_DwcEngineStep);

void BM_PwcEngineStep(benchmark::State& state) {
  const core::EdeaConfig cfg = core::EdeaConfig::paper();
  core::PwcEngine engine(cfg);
  Rng rng(2);
  core::PwcStepInput pin;
  pin.rows = cfg.tn;
  pin.cols = cfg.tm;
  pin.channels = cfg.td;
  pin.kernels = cfg.tk;
  pin.activations.resize(static_cast<std::size_t>(4 * cfg.td));
  pin.weights.resize(static_cast<std::size_t>(cfg.tk * cfg.td));
  for (auto& v : pin.activations) {
    v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  }
  for (auto& v : pin.weights) {
    v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.step(pin));
  }
  state.SetItemsProcessed(state.iterations() * engine.mac_count());
}
BENCHMARK(BM_PwcEngineStep);

// --- kernel-table fast paths: specialized vs generic, per shape -----------
//
// One engine step per hot shape, once through the kernel table's
// specialized kernel (kAuto) and once forced onto the generic reference
// loops (kForceGeneric). Both variants are bit-identical in outputs and
// MacActivity (tests/kernel_dispatch_test.cpp, differential_test.cpp);
// this pair measures only the host-time gap. main() derives a
// "kernel_speedup/<shape>" ratio per pair into the --json summary, and
// --require-speedup X turns a ratio below X into a nonzero exit - the
// regression gate CI runs.

void BM_DwcShapeStep(benchmark::State& state, int stride,
                     core::KernelPolicy policy) {
  const core::EdeaConfig cfg = core::EdeaConfig::paper();
  core::DwcEngine engine(cfg);
  engine.set_kernel_policy(policy);
  Rng rng(21);
  std::vector<std::int8_t> w(
      static_cast<std::size_t>(cfg.kernel * cfg.kernel * cfg.td));
  for (auto& v : w) v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  engine.load_weights(w, cfg.td);
  core::DwcWindow window;
  window.extent = (cfg.tn - 1) * stride + cfg.kernel;
  window.channels = cfg.td;
  window.values.resize(
      static_cast<std::size_t>(window.extent * window.extent * cfg.td));
  for (auto& v : window.values) {
    v = rng.bernoulli(0.3) ? std::int8_t{0}
                           : static_cast<std::int8_t>(rng.uniform_int(-128,
                                                                      127));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.step(window, stride));
  }
  state.SetItemsProcessed(state.iterations() * engine.mac_count());
}
BENCHMARK_CAPTURE(BM_DwcShapeStep, dwc3x3_s1_specialized, 1,
                  core::KernelPolicy::kAuto);
BENCHMARK_CAPTURE(BM_DwcShapeStep, dwc3x3_s1_generic, 1,
                  core::KernelPolicy::kForceGeneric);
BENCHMARK_CAPTURE(BM_DwcShapeStep, dwc3x3_s2_specialized, 2,
                  core::KernelPolicy::kAuto);
BENCHMARK_CAPTURE(BM_DwcShapeStep, dwc3x3_s2_generic, 2,
                  core::KernelPolicy::kForceGeneric);

void BM_PwcShapeStep(benchmark::State& state, core::KernelPolicy policy) {
  const core::EdeaConfig cfg = core::EdeaConfig::paper();
  core::PwcEngine engine(cfg);
  engine.set_kernel_policy(policy);
  Rng rng(22);
  core::PwcStepInput pin;
  pin.rows = cfg.tn;
  pin.cols = cfg.tm;
  pin.channels = cfg.td;
  pin.kernels = cfg.tk;
  pin.activations.resize(
      static_cast<std::size_t>(cfg.tn * cfg.tm * cfg.td));
  pin.weights.resize(static_cast<std::size_t>(cfg.tk * cfg.td));
  for (auto& v : pin.activations) {
    v = rng.bernoulli(0.3) ? std::int8_t{0}
                           : static_cast<std::int8_t>(rng.uniform_int(-128,
                                                                      127));
  }
  for (auto& v : pin.weights) {
    v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.step(pin));
  }
  state.SetItemsProcessed(state.iterations() * engine.mac_count());
}
BENCHMARK_CAPTURE(BM_PwcShapeStep, pwc1x1_specialized,
                  core::KernelPolicy::kAuto);
BENCHMARK_CAPTURE(BM_PwcShapeStep, pwc1x1_generic,
                  core::KernelPolicy::kForceGeneric);

void BM_NonConvAffine(benchmark::State& state) {
  const auto k = arch::Q8_16::from_double(0.73);
  const auto b = arch::Q8_16::from_double(-1.25);
  std::int32_t acc = 12345;
  for (auto _ : state) {
    benchmark::DoNotOptimize(arch::nonconv_affine(acc, k, b));
    acc = (acc * 1103515245 + 12345) & 0xFFFFF;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NonConvAffine);

void BM_QuantizeTensor(benchmark::State& state) {
  Rng rng(3);
  nn::FloatTensor t(nn::Shape{32, 32, 32});
  for (auto& v : t.storage()) v = static_cast<float>(rng.normal(0.0, 1.0));
  const nn::QuantScale s{0.02f};
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::quantize_tensor(t, s));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_QuantizeTensor);

void BM_ReferenceDepthwise(benchmark::State& state) {
  Rng rng(4);
  const int ch = static_cast<int>(state.range(0));
  nn::Int8Tensor input(nn::Shape{16, 16, ch});
  nn::Int8Tensor kernel(nn::Shape{3, 3, ch});
  for (auto& v : input.storage()) {
    v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  }
  for (auto& v : kernel.storage()) {
    v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        nn::depthwise_conv2d_q(input, kernel, {3, 1, 1}));
  }
  state.SetItemsProcessed(state.iterations() * 16 * 16 * ch * 9);
}
BENCHMARK(BM_ReferenceDepthwise)->Arg(32)->Arg(128);

void BM_ReferencePointwise(benchmark::State& state) {
  Rng rng(5);
  const int ch = static_cast<int>(state.range(0));
  nn::Int8Tensor input(nn::Shape{8, 8, ch});
  nn::Int8Tensor weights(nn::Shape{ch, ch});
  for (auto& v : input.storage()) {
    v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  }
  for (auto& v : weights.storage()) {
    v = static_cast<std::int8_t>(rng.uniform_int(-128, 127));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::pointwise_conv2d_q(input, weights));
  }
  state.SetItemsProcessed(state.iterations() * 8 * 8 * ch * ch);
}
BENCHMARK(BM_ReferencePointwise)->Arg(64)->Arg(256);

void BM_AcceleratorLayerTileParallel(benchmark::State& state) {
  // Serial vs tile-parallel single-layer latency: a 32x32x64 layer is 16
  // buffer tiles under the paper config, so tile_parallelism 1/2/4/8
  // exercises the full chunking range. Results are bit-identical at every
  // width (tests/tile_parallel_test.cpp); this measures only the host
  // wall-clock effect. Speedup tracks physical cores - on a single-core
  // host all widths cost the same (docs/BENCHMARKS.md records both).
  nn::DscLayerSpec spec;
  spec.in_rows = 32;
  spec.in_cols = 32;
  spec.in_channels = 64;
  spec.out_channels = 64;
  Rng rng(7);
  const nn::FloatDscLayer fl = nn::make_random_float_layer(spec, rng);
  const nn::QuantDscLayer layer = nn::quantize_layer(
      fl, nn::QuantScale{0.02f}, nn::QuantScale{0.03f},
      nn::QuantScale{0.03f});
  nn::Int8Tensor input(nn::Shape{32, 32, 64});
  for (auto& v : input.storage()) {
    v = static_cast<std::int8_t>(rng.uniform_int(0, 127));
  }
  core::EdeaAccelerator accel;
  accel.set_tile_parallelism(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(accel.run_layer(layer, input));
  }
  state.SetItemsProcessed(state.iterations() * spec.total_macs());
}
BENCHMARK(BM_AcceleratorLayerTileParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();  // work runs on pool threads; wall clock is the metric

void BM_AcceleratorLayer(benchmark::State& state) {
  nn::DscLayerSpec spec;
  spec.in_rows = 8;
  spec.in_cols = 8;
  spec.in_channels = 64;
  spec.out_channels = 64;
  Rng rng(6);
  const nn::FloatDscLayer fl = nn::make_random_float_layer(spec, rng);
  const nn::QuantDscLayer layer = nn::quantize_layer(
      fl, nn::QuantScale{0.02f}, nn::QuantScale{0.03f},
      nn::QuantScale{0.03f});
  nn::Int8Tensor input(nn::Shape{8, 8, 64});
  for (auto& v : input.storage()) {
    v = static_cast<std::int8_t>(rng.uniform_int(0, 127));
  }
  core::EdeaAccelerator accel;
  for (auto _ : state) {
    benchmark::DoNotOptimize(accel.run_layer(layer, input));
  }
  state.SetItemsProcessed(state.iterations() * spec.total_macs());
}
BENCHMARK(BM_AcceleratorLayer);

// --- backend-level network runs: the dataflow dimension -------------------
//
// One small DSC layer through each backend via make_backend() -
// what a cross-backend sweep pays per design point. The serialized
// baseline simulates *more* modeled work (the external round trip), so
// its host cost differs from EDEA's; docs/BENCHMARKS.md records both.

void BM_BackendNetwork(benchmark::State& state, const char* backend_id) {
  nn::DscLayerSpec spec;
  spec.in_rows = 8;
  spec.in_cols = 8;
  spec.in_channels = 64;
  spec.out_channels = 64;
  Rng rng(9);
  const nn::FloatDscLayer fl = nn::make_random_float_layer(spec, rng);
  const std::vector<nn::QuantDscLayer> network{nn::quantize_layer(
      fl, nn::QuantScale{0.02f}, nn::QuantScale{0.03f},
      nn::QuantScale{0.03f})};
  nn::Int8Tensor input(nn::Shape{8, 8, 64});
  for (auto& v : input.storage()) {
    v = static_cast<std::int8_t>(rng.uniform_int(0, 127));
  }
  const auto backend = core::make_backend(backend_id);
  for (auto _ : state) {
    benchmark::DoNotOptimize(backend->run_network(network, input));
  }
  state.SetItemsProcessed(state.iterations() * spec.total_macs());
}
BENCHMARK_CAPTURE(BM_BackendNetwork, edea, "edea");
BENCHMARK_CAPTURE(BM_BackendNetwork, serialized, "serialized");

// --- arena planning and batched execution ---------------------------------
//
// What the planned-memory runtime costs and saves: BM_ArenaPlanSetup is
// the pure planning overhead (blob registration + first-fit offsets) a
// run_network call pays before any arithmetic; BM_BatchedNetworkRun
// divides one batch=N run's wall clock by N, so the per-image latency
// falling with N is the amortization of that setup (plus worker/buffer
// construction) across images. docs/BENCHMARKS.md records both.

void BM_ArenaPlanSetup(benchmark::State& state) {
  const std::vector<nn::DscLayerSpec> specs = nn::zoo_specs("edeanet-64");
  const std::vector<nn::QuantDscLayer> network =
      nn::make_random_quant_network(specs, 7);
  const nn::Shape input_shape{specs.front().in_rows, specs.front().in_cols,
                              specs.front().in_channels};
  for (auto _ : state) {
    nn::MemoryPlanner planner;
    const nn::NetworkActivationPlan acts =
        nn::plan_network_activations(planner, network, input_shape, 4);
    benchmark::DoNotOptimize(acts);
    benchmark::DoNotOptimize(planner.plan());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(network.size()));
}
BENCHMARK(BM_ArenaPlanSetup);

void BM_BatchedNetworkRun(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  const std::vector<nn::DscLayerSpec> specs = nn::zoo_specs("edeanet-64");
  const std::vector<nn::QuantDscLayer> network =
      nn::make_random_quant_network(specs, 7);
  nn::Int8Tensor input(nn::Shape{specs.front().in_rows,
                                 specs.front().in_cols,
                                 specs.front().in_channels});
  Rng rng(11);
  for (auto& v : input.storage()) {
    v = static_cast<std::int8_t>(rng.uniform_int(0, 127));
  }
  for (auto _ : state) {
    // A fresh backend per run so construction + planning are inside the
    // measurement - that is exactly the cost batching amortizes.
    const auto backend = core::make_backend("edea");
    benchmark::DoNotOptimize(
        backend->run_network_batch(network, input, batch));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_BatchedNetworkRun)->Arg(1)->Arg(4)->Arg(16);

// --- simulation service: cache-hit vs cache-miss request latency ----------
//
// The service exists because DSE refinement revisits design points; these
// measure what a revisit saves. One small two-layer DSC network:
//   - miss: cache_capacity 0 forces every submission down the full
//     simulate-on-the-pool path (what a cold point costs),
//   - hit: the same key resubmitted against a warm cache (a hash lookup
//     plus one outcome deep-copy),
//   - persisted hit: the key served from a cache file loaded by a
//     restarted service (summary-only - no result tensors to copy).
// Numbers are recorded in docs/BENCHMARKS.md.

/// The tiny workload shared by the service benches (static: one
/// materialization per process, like the memoized MobileNet run).
struct ServiceBenchWorkload {
  std::vector<nn::QuantDscLayer> layers;
  nn::Int8Tensor input;

  ServiceBenchWorkload() : input(nn::Shape{8, 8, 16}) {
    nn::DscLayerSpec a;
    a.index = 0;
    a.in_rows = 8;
    a.in_cols = 8;
    a.in_channels = 16;
    a.out_channels = 32;
    nn::DscLayerSpec b = a;
    b.index = 1;
    b.in_channels = 32;
    b.stride = 2;
    layers = nn::make_random_quant_network({a, b}, 77);
    Rng rng(78);
    for (auto& v : input.storage()) {
      v = static_cast<std::int8_t>(rng.uniform_int(-64, 64));
    }
  }

  [[nodiscard]] core::SweepJob job(const char* backend = "edea") const {
    core::SweepJob j;
    j.name = "bench";
    j.backend = backend;
    j.layers = &layers;
    j.input = &input;
    return j;
  }

  static const ServiceBenchWorkload& instance() {
    static ServiceBenchWorkload workload;
    return workload;
  }
};

void BM_ServiceCacheMiss(benchmark::State& state, const char* backend) {
  const ServiceBenchWorkload& workload = ServiceBenchWorkload::instance();
  service::ServiceOptions options;
  options.cache_capacity = 0;  // memoization off: every submission simulates
  service::SimulationService svc(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(svc.submit(workload.job(backend)).get());
  }
  state.SetItemsProcessed(state.iterations());
}
// The EDEA-vs-serialized service latency pair docs/BENCHMARKS.md records:
// what one cold request costs on each dataflow.
BENCHMARK_CAPTURE(BM_ServiceCacheMiss, edea, "edea")->UseRealTime();
BENCHMARK_CAPTURE(BM_ServiceCacheMiss, serialized, "serialized")
    ->UseRealTime();

void BM_ServiceCacheHit(benchmark::State& state) {
  const ServiceBenchWorkload& workload = ServiceBenchWorkload::instance();
  service::SimulationService svc;
  if (!svc.submit(workload.job()).get().ok) {
    state.SkipWithError("priming simulation failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(svc.submit(workload.job()).get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServiceCacheHit)->UseRealTime();

void BM_ServiceCachePersistedHit(benchmark::State& state) {
  const ServiceBenchWorkload& workload = ServiceBenchWorkload::instance();
  const std::string path = "/tmp/edea_bench_cache.bin";
  {
    service::SimulationService primer;
    if (!primer.submit(workload.job()).get().ok) {
      state.SkipWithError("priming simulation failed");
      return;
    }
    (void)primer.save_cache(path);
  }
  service::SimulationService svc;  // a "restarted" service
  (void)svc.load_cache(path);
  for (auto _ : state) {
    benchmark::DoNotOptimize(svc.submit(workload.job()).get());
  }
  state.SetItemsProcessed(state.iterations());
  std::remove(path.c_str());
}
BENCHMARK(BM_ServiceCachePersistedHit)->UseRealTime();

// --- --json reporting ------------------------------------------------------

/// Console reporter that also collects every finished run, so main() can
/// emit the machine-readable summary CI archives. Collection happens in
/// ReportRuns (after each benchmark finishes), display is delegated to
/// the stock console reporter - the human-readable output is unchanged.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  struct Row {
    std::string name;
    double real_time_ns = 0.0;
    double cpu_time_ns = 0.0;
    std::int64_t iterations = 0;
  };

  bool ReportContext(const Context& context) override {
    return benchmark::ConsoleReporter::ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    // No skip filtering: the skip-marker field was renamed across Google
    // Benchmark versions (error_occurred -> skipped), and a skipped run's
    // zero timings in the JSON are harmless next to a broken build.
    for (const Run& run : runs) {
      Row row;
      row.name = run.benchmark_name();
      row.real_time_ns = run.GetAdjustedRealTime();
      row.cpu_time_ns = run.GetAdjustedCPUTime();
      row.iterations = static_cast<std::int64_t>(run.iterations);
      rows_.push_back(std::move(row));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  [[nodiscard]] const std::vector<Row>& rows() const noexcept {
    return rows_;
  }

 private:
  std::vector<Row> rows_;
};

/// JSON string escaping for benchmark names (quotes/backslashes only -
/// names are ASCII identifiers plus '/' and ':').
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// One specialized/generic kernel pair with its derived host-time ratio
/// (generic cpu time over specialized cpu time - >1 means the fast path
/// is actually fast).
struct SpeedupRow {
  std::string shape;  ///< e.g. "dwc3x3_s1"
  double specialized_cpu_time_ns = 0.0;
  double generic_cpu_time_ns = 0.0;
  double ratio = 0.0;
};

/// Pairs every "..._specialized" benchmark with its "..._generic" twin by
/// name and derives the speedup ratio. Shapes whose twin did not run
/// (e.g. filtered out) are skipped - the --require-speedup gate treats an
/// empty result as a failure, so filtering cannot silently pass the gate.
std::vector<SpeedupRow> derive_speedups(
    const std::vector<CollectingReporter::Row>& rows) {
  const std::string spec_tag = "_specialized";
  const std::string gen_tag = "_generic";
  std::vector<SpeedupRow> speedups;
  for (const auto& row : rows) {
    if (row.name.size() < spec_tag.size() ||
        row.name.compare(row.name.size() - spec_tag.size(), spec_tag.size(),
                         spec_tag) != 0) {
      continue;
    }
    const std::string stem =
        row.name.substr(0, row.name.size() - spec_tag.size());
    const std::string partner = stem + gen_tag;
    for (const auto& other : rows) {
      if (other.name != partner) continue;
      SpeedupRow s;
      const std::size_t slash = stem.rfind('/');
      s.shape = slash == std::string::npos ? stem : stem.substr(slash + 1);
      s.specialized_cpu_time_ns = row.cpu_time_ns;
      s.generic_cpu_time_ns = other.cpu_time_ns;
      s.ratio = row.cpu_time_ns > 0.0
                    ? other.cpu_time_ns / row.cpu_time_ns
                    : 0.0;
      speedups.push_back(std::move(s));
      break;
    }
  }
  return speedups;
}

/// Writes the collected rows as a JSON object: benchmark name -> its
/// timings, then one "kernel_speedup/<shape>" entry per specialized/
/// generic pair. Returns false (with a message on stderr) when the file
/// cannot be written - CI must fail loudly, not archive nothing.
bool write_json(const std::string& path,
                const std::vector<CollectingReporter::Row>& rows,
                const std::vector<SpeedupRow>& speedups) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) {
    std::cerr << "bench_micro_kernels: cannot write --json file '" << path
              << "'\n";
    return false;
  }
  out << "{\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    out << "  \"" << json_escape(r.name) << "\": {"
        << "\"real_time_ns\": " << r.real_time_ns << ", "
        << "\"cpu_time_ns\": " << r.cpu_time_ns << ", "
        << "\"iterations\": " << r.iterations << "}"
        << (i + 1 < rows.size() || !speedups.empty() ? "," : "") << "\n";
  }
  for (std::size_t i = 0; i < speedups.size(); ++i) {
    const auto& s = speedups[i];
    out << "  \"kernel_speedup/" << json_escape(s.shape) << "\": {"
        << "\"specialized_cpu_time_ns\": " << s.specialized_cpu_time_ns
        << ", \"generic_cpu_time_ns\": " << s.generic_cpu_time_ns
        << ", \"ratio\": " << s.ratio << "}"
        << (i + 1 < speedups.size() ? "," : "") << "\n";
  }
  out << "}\n";
  out.flush();
  if (!out.good()) {
    std::cerr << "bench_micro_kernels: failed writing '" << path << "'\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Consume our own flags (--json PATH, --require-speedup X) before
  // Google Benchmark validates the remaining ones (it rejects options it
  // does not know).
  std::string json_path;
  double require_speedup = 0.0;  // 0 = gate off
  std::vector<char*> passthrough;
  passthrough.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      if (i + 1 >= argc) {
        std::cerr << "bench_micro_kernels: --json needs a file path\n";
        return 2;
      }
      json_path = argv[++i];
      continue;
    }
    if (std::string(argv[i]) == "--require-speedup") {
      if (i + 1 >= argc) {
        std::cerr << "bench_micro_kernels: --require-speedup needs a "
                     "minimum ratio\n";
        return 2;
      }
      char* end = nullptr;
      require_speedup = std::strtod(argv[i + 1], &end);
      if (end == argv[i + 1] || *end != '\0' || require_speedup <= 0.0) {
        std::cerr << "bench_micro_kernels: bad --require-speedup value '"
                  << argv[i + 1] << "' (want a ratio > 0)\n";
        return 2;
      }
      ++i;
      continue;
    }
    passthrough.push_back(argv[i]);
  }
  int pass_argc = static_cast<int>(passthrough.size());

  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc,
                                             passthrough.data())) {
    return 1;
  }
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  const std::vector<SpeedupRow> speedups = derive_speedups(reporter.rows());
  for (const SpeedupRow& s : speedups) {
    std::cerr << "kernel_speedup/" << s.shape << ": " << s.ratio
              << "x (specialized " << s.specialized_cpu_time_ns
              << " ns vs generic " << s.generic_cpu_time_ns << " ns)\n";
  }

  if (!json_path.empty() &&
      !write_json(json_path, reporter.rows(), speedups)) {
    return 1;
  }

  if (require_speedup > 0.0) {
    if (speedups.empty()) {
      std::cerr << "bench_micro_kernels: --require-speedup "
                << require_speedup
                << " but no specialized/generic pairs ran (filtered "
                   "out?)\n";
      return 1;
    }
    bool ok = true;
    for (const SpeedupRow& s : speedups) {
      if (s.ratio < require_speedup) {
        std::cerr << "bench_micro_kernels: kernel_speedup/" << s.shape
                  << " = " << s.ratio << "x is below the required "
                  << require_speedup << "x floor\n";
        ok = false;
      }
    }
    if (!ok) return 1;
  }
  return 0;
}
