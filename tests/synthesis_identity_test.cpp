// synthesis_identity_test - golden fingerprints of synthesized workloads.
//
// A workload (quantized layers + synthetic input) is a pure function of
// its catalog key, and everything downstream - cache keys, persisted
// cache files, the golden transcript - is keyed by its fingerprint. This
// suite pins the fingerprint of every zoo network x seeds {1, 7, 1000} x
// dilation {1, 2} x depth multiplier {1, 2} against
// tests/data/synthesis_fingerprints.txt, so a change to how synthesis is
// scheduled (parallel layers, per-key catalog entries, eviction) cannot
// change a single synthesized byte unnoticed.
//
// It also pins the seeds whose synthetic batch-norm draws once folded to
// a Non-Conv offset outside Q8.16, so synthesis threw and the request
// answered an error: they must now synthesize and simulate.
//
// Regenerating after an intentional synthesis change:
//   EDEA_WRITE_GOLDEN=1 ./synthesis_identity_test
// (one process, so the rewrites of the fingerprint file run in sequence).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/sweep_runner.hpp"
#include "nn/model_zoo.hpp"
#include "service/session.hpp"

namespace edea::service {
namespace {

const char* kFingerprintPath =
    EDEA_TEST_DATA_DIR "/synthesis_fingerprints.txt";

const std::uint64_t kSeeds[] = {1, 7, 1000};

std::string fingerprint_key(const std::string& network, std::uint64_t seed,
                            int dilation, int depth_multiplier) {
  return network + " seed=" + std::to_string(seed) +
         " dilation=" + std::to_string(dilation) +
         " depth_multiplier=" + std::to_string(depth_multiplier);
}

/// The file as key -> hex fingerprint, one workload per line.
std::map<std::string, std::string> read_fingerprints() {
  std::map<std::string, std::string> rows;
  std::ifstream in(kFingerprintPath);
  std::string line;
  while (std::getline(in, line)) {
    const auto space = line.rfind(' ');
    if (line.empty() || space == std::string::npos) continue;
    rows[line.substr(0, space)] = line.substr(space + 1);
  }
  return rows;
}

void write_fingerprints(const std::map<std::string, std::string>& rows) {
  std::ofstream out(kFingerprintPath);
  ASSERT_TRUE(out.good()) << "cannot write " << kFingerprintPath;
  for (const auto& [key, hex] : rows) out << key << ' ' << hex << '\n';
}

std::string hex16(std::uint64_t value) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(value));
  return hex;
}

std::string test_name(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& ch : name) {
    if (ch == '-' || ch == '.') ch = '_';
  }
  return name;
}

class SynthesisIdentityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SynthesisIdentityTest, FingerprintsMatchTheGoldenFile) {
  const std::string& network = GetParam();
  std::map<std::string, std::string> actual;
  for (const std::uint64_t seed : kSeeds) {
    for (const int dilation : {1, 2}) {
      for (const int depth_multiplier : {1, 2}) {
        // A catalog per workload: only one network is resident at a time.
        WorkloadCatalog catalog;
        actual[fingerprint_key(network, seed, dilation, depth_multiplier)] =
            hex16(catalog.resolve(network, seed, dilation, depth_multiplier)
                      .fingerprint);
      }
    }
  }

  std::map<std::string, std::string> golden = read_fingerprints();
  if (std::getenv("EDEA_WRITE_GOLDEN") != nullptr) {
    for (const auto& [key, hex] : actual) golden[key] = hex;
    write_fingerprints(golden);
    GTEST_SKIP() << "fingerprint rows for " << network << " rewritten at "
                 << kFingerprintPath;
  }
  for (const auto& [key, hex] : actual) {
    const auto it = golden.find(key);
    ASSERT_NE(it, golden.end())
        << "no fingerprint row for '" << key << "' in " << kFingerprintPath
        << " (regenerate with EDEA_WRITE_GOLDEN=1)";
    EXPECT_EQ(it->second, hex)
        << "synthesized bytes changed for '" << key << "'";
  }
}

TEST(SynthesisDefectSeeds, SaturatedWorkloadsSimulate) {
  // Each of these once drew a BN channel whose offset folded outside
  // Q8.16: synthesis threw and the request answered an error.
  struct Case {
    const char* network;
    std::uint64_t seed;
    int depth_multiplier;
  };
  const Case cases[] = {{"mobilenet-cifar", 43, 1},
                        {"mobilenet-0.25x", 595, 1},
                        {"mobilenet-cifar", 1002, 2}};
  WorkloadCatalog catalog;
  std::vector<core::SweepJob> jobs;
  for (const Case& c : cases) {
    const WorkloadCatalog::Workload& w =
        catalog.resolve(c.network, c.seed, 1, c.depth_multiplier);
    core::SweepJob job;
    job.name = std::string(c.network) + "@" + std::to_string(c.seed);
    job.depth_multiplier = c.depth_multiplier;
    job.layers = &w.layers;
    job.input = &w.input;
    jobs.push_back(job);
  }
  const std::vector<core::SweepOutcome> outcomes =
      core::SweepRunner().run(jobs);
  for (const core::SweepOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.ok) << outcome.name << ": " << outcome.error;
    EXPECT_GT(outcome.summary.total_cycles, 0) << outcome.name;
  }
}

INSTANTIATE_TEST_SUITE_P(ZooNetworks, SynthesisIdentityTest,
                         ::testing::ValuesIn(nn::zoo_network_names()),
                         test_name);

}  // namespace
}  // namespace edea::service
