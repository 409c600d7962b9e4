// counter_ledger_test - golden digests of every LayerRunResult field.
//
// The simulator's counters (cycles, SRAM/external traffic, dataflow
// operand counts, MAC activity, Non-Conv ops, the 24-bit psum envelope,
// sparsity fractions) are what every figure of the paper reads. Other
// suites pin them relatively - edea vs serialized, parallel vs serial,
// fast kernels vs generic - or pin a few hand-computed totals. This one
// pins them absolutely: each (zoo network, configuration, backend) run is
// folded into one FNV-1a digest over every per-layer field plus the
// output bytes, and compared against tests/data/counter_ledger.txt.
//
// A host-side optimization of the simulator must leave every digest
// unchanged. A deliberate change to what the model counts shows up as a
// diff in the ledger, reviewed with the code that caused it.
//
// Regenerating after an intentional counter change:
//   EDEA_WRITE_GOLDEN=1 ./counter_ledger_test
// (one process, so the rewrites of the ledger file run in sequence).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "nn/model_zoo.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/random.hpp"

namespace edea::core {
namespace {

const char* kLedgerPath = EDEA_TEST_DATA_DIR "/counter_ledger.txt";

constexpr std::uint64_t kWeightSeed = 13;
constexpr std::uint64_t kInputSeed = 29;

/// The five zoo networks the perf harness traces.
const char* const kNetworks[] = {"mobilenet-cifar", "mobilenet-v2",
                                 "efficientnet-b0", "edeanet-64",
                                 "mobilenet-0.25x"};

/// The paper configuration (Td=8, Tk=16) plus the other corners of the
/// td x tk design-space grid.
struct LedgerConfig {
  int td;
  int tk;
};
const LedgerConfig kConfigs[] = {{8, 16}, {8, 64}, {32, 16}, {32, 64}};

nn::Int8Tensor random_input(const nn::DscLayerSpec& spec, std::uint64_t seed) {
  Rng rng(seed);
  nn::Int8Tensor input(
      nn::Shape{spec.in_rows, spec.in_cols, spec.in_channels});
  for (auto& v : input.storage()) {
    v = rng.bernoulli(0.4) ? std::int8_t{0}
                           : static_cast<std::int8_t>(rng.uniform_int(0, 127));
  }
  return input;
}

void feed(util::Fnv1a64& h, const arch::AccessCounter& c) {
  h.pod(c.reads).pod(c.writes).pod(c.read_bytes).pod(c.write_bytes);
}

void feed(util::Fnv1a64& h, const arch::MacActivity& a) {
  h.pod(a.lane_cycles).pod(a.useful_macs).pod(a.zero_operand_macs);
}

/// Every measured field of one layer, field by field (never whole structs,
/// so padding cannot leak into the digest).
void feed(util::Fnv1a64& h, const LayerRunResult& l) {
  h.str(l.spec.to_string());
  const LayerTiming& t = l.timing;
  h.pod(t.passes).pod(t.init_cycles).pod(t.compute_cycles);
  h.pod(t.total_cycles).pod(t.dwc_active_cycles).pod(t.pwc_active_cycles);
  feed(h, l.buffers.dwc_ifmap);
  feed(h, l.buffers.dwc_weight);
  feed(h, l.buffers.offline);
  feed(h, l.buffers.intermediate);
  feed(h, l.buffers.pwc_weight);
  feed(h, l.buffers.accumulator);
  const DataflowCounters& d = l.dataflow;
  h.pod(d.dwc_window_elements).pod(d.dwc_weight_elements);
  h.pod(d.pwc_activation_elements).pod(d.pwc_weight_elements);
  for (int c = 0; c < arch::kTrafficClassCount; ++c) {
    feed(h, l.external.counter(static_cast<arch::TrafficClass>(c)));
  }
  feed(h, l.dwc_activity);
  feed(h, l.pwc_activity);
  h.pod(l.nonconv_transfer_ops).pod(l.nonconv_writeback_ops);
  h.pod(l.max_abs_psum);
  h.pod(l.dwc_input_zero_fraction).pod(l.pwc_input_zero_fraction);
  h.pod(static_cast<std::uint64_t>(l.output.size()));
  h.bytes(l.output.data(), static_cast<std::size_t>(l.output.size()));
}

std::string ledger_key(const std::string& network, const LedgerConfig& c,
                       const std::string& backend) {
  return network + " td=" + std::to_string(c.td) +
         " tk=" + std::to_string(c.tk) + " " + backend;
}

/// The digest of one run, or "resource-error" when the configuration
/// cannot map the network (itself a pinned outcome).
std::string run_digest(const std::vector<nn::QuantDscLayer>& layers,
                       const nn::Int8Tensor& input, const LedgerConfig& c,
                       const std::string& backend_id) {
  EdeaConfig config = EdeaConfig::paper();
  config.td = c.td;
  config.tk = c.tk;
  const auto backend = make_backend(backend_id, config);
  NetworkRunResult run;
  try {
    run = backend->run_network(layers, input);
  } catch (const ResourceError&) {
    return "resource-error";
  }
  util::Fnv1a64 h;
  h.pod(static_cast<std::uint64_t>(run.layers.size()));
  for (const LayerRunResult& l : run.layers) feed(h, l);
  h.pod(static_cast<std::uint64_t>(run.peak_arena_bytes));
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(h.digest()));
  return hex;
}

/// The ledger as key -> digest ("<network> td=<td> tk=<tk> <backend>"
/// then a space and the digest, one run per line).
std::map<std::string, std::string> read_ledger() {
  std::map<std::string, std::string> ledger;
  std::ifstream in(kLedgerPath);
  std::string line;
  while (std::getline(in, line)) {
    const auto space = line.rfind(' ');
    if (line.empty() || space == std::string::npos) continue;
    ledger[line.substr(0, space)] = line.substr(space + 1);
  }
  return ledger;
}

void write_ledger(const std::map<std::string, std::string>& ledger) {
  std::ofstream out(kLedgerPath);
  ASSERT_TRUE(out.good()) << "cannot write " << kLedgerPath;
  for (const auto& [key, digest] : ledger) out << key << ' ' << digest << '\n';
}

class CounterLedgerTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CounterLedgerTest, EveryCounterMatchesTheLedger) {
  const std::string network = GetParam();
  const std::vector<nn::QuantDscLayer> layers =
      nn::make_random_quant_network(nn::zoo_specs(network), kWeightSeed);
  const nn::Int8Tensor input = random_input(layers.front().spec, kInputSeed);

  std::map<std::string, std::string> actual;
  for (const LedgerConfig& c : kConfigs) {
    for (const std::string backend : {"edea", "serialized"}) {
      actual[ledger_key(network, c, backend)] =
          run_digest(layers, input, c, backend);
    }
  }

  std::map<std::string, std::string> ledger = read_ledger();
  if (std::getenv("EDEA_WRITE_GOLDEN") != nullptr) {
    for (const auto& [key, digest] : actual) ledger[key] = digest;
    write_ledger(ledger);
    GTEST_SKIP() << "ledger rows for " << network << " rewritten at "
                 << kLedgerPath;
  }

  for (const auto& [key, digest] : actual) {
    const auto it = ledger.find(key);
    ASSERT_NE(it, ledger.end())
        << "no ledger row for '" << key << "' in " << kLedgerPath
        << " (regenerate with EDEA_WRITE_GOLDEN=1)";
    EXPECT_EQ(it->second, digest)
        << "counters changed for '" << key << "'; if the model change is "
        << "intentional, regenerate " << kLedgerPath
        << " with EDEA_WRITE_GOLDEN=1 and commit the diff";
  }
}

INSTANTIATE_TEST_SUITE_P(
    ZooNetworks, CounterLedgerTest, ::testing::ValuesIn(kNetworks),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& ch : name) {
        if (ch == '-' || ch == '.') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace edea::core
