// protocol_golden_test - golden-file regression of the service line
// protocol (service/protocol.hpp).
//
// The protocol is the service's wire contract: clients, the scripted CI
// stream, and any future socket transport all speak it. This test pins
// the *bytes* - request parsing (canonical dump of every ParsedLine
// field) and response formatting (`ok`/`error`/`stats` lines) - against
// the checked-in transcript tests/data/protocol_golden.txt, so any
// protocol change must be deliberate: it shows up as a diff in the golden
// file, reviewed alongside the code that caused it.
//
// Regenerating after an intentional change:
//   EDEA_WRITE_GOLDEN=1 ./protocol_golden_test
// rewrites the golden file in the source tree; commit the diff.
#include "service/protocol.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/run_result.hpp"
#include "core/sweep_runner.hpp"
#include "service/session.hpp"
#include "service/simulation_service.hpp"
#include "service/transport.hpp"

namespace edea::service {
namespace {

const char* kGoldenPath = EDEA_TEST_DATA_DIR "/protocol_golden.txt";

/// Canonical dump of one parse result: every field that downstream code
/// consumes, in a fixed order. Byte-stable by construction (only integer
/// formatting and EdeaConfig::to_string, which the protocol itself uses).
std::string dump(const ParsedLine& p) {
  switch (p.kind) {
    case ParsedLine::Kind::kEmpty:
      return "empty";
    case ParsedLine::Kind::kStats:
      return "stats-request";
    case ParsedLine::Kind::kMode:
      return p.unordered ? "mode-request unordered" : "mode-request ordered";
    case ParsedLine::Kind::kBatchBegin:
      return "batch-begin n=" + std::to_string(p.frame_size);
    case ParsedLine::Kind::kBatchEnd:
      return "batch-end";
    case ParsedLine::Kind::kError:
      return "parse-error " + p.error;
    case ParsedLine::Kind::kRun: {
      std::string run = "run name=" + p.request.job_name() +
                        " network=" + p.request.network +
                        " seed=" + std::to_string(p.request.seed) +
                        " backend=" + p.request.backend +
                        " batch=" + std::to_string(p.request.batch);
      // Like the wire echo: the workload transforms appear only when
      // non-default, so pre-dilation transcript lines stay byte-identical
      // (the golden file only ever grows).
      if (p.request.dilation != 1) {
        run += " dilation=" + std::to_string(p.request.dilation);
      }
      if (p.request.depth_multiplier != 1) {
        run += " depth_multiplier=" + std::to_string(p.request.depth_multiplier);
      }
      return run + " " + p.request.config.to_string();
    }
  }
  return "?";
}

/// A synthetic successful outcome with fully pinned-down content, so the
/// formatted line (incl. the FNV-1a output hash and the %.2f GOPS) is a
/// platform-independent constant.
core::SweepOutcome ok_outcome() {
  core::SweepOutcome out;
  out.name = "edeanet-64@7";
  out.config = core::EdeaConfig::paper();
  out.ok = true;

  core::LayerRunResult layer;
  layer.spec.index = 0;
  layer.spec.in_rows = 8;
  layer.spec.in_cols = 8;
  layer.spec.in_channels = 16;
  layer.spec.out_channels = 32;
  layer.timing.total_cycles = 1234;
  layer.output = nn::Int8Tensor(nn::Shape{2, 2, 2});
  out.result.layers.push_back(std::move(layer));

  out.result.output = nn::Int8Tensor(nn::Shape{2, 2, 2});
  for (std::size_t i = 0; i < out.result.output.storage().size(); ++i) {
    out.result.output.storage()[i] = static_cast<std::int8_t>(i + 1);
  }
  // The protocol formats the *captured* summary (evaluate_job fills it in
  // production; summary-only persisted hits have nothing else).
  out.summary = out.result.summary(out.config.clock_ghz);
  return out;
}

core::SweepOutcome error_outcome() {
  core::SweepOutcome out;
  out.name = "mobilenet-0.25x@3";
  out.config = core::EdeaConfig::paper();
  out.config.kernel = 5;
  out.ok = false;
  out.error = "layer kernel 3 does not match the engine's 5x5 datapath";
  return out;
}

/// Builds the full golden transcript: a fixed list of protocol
/// interactions and their exact textual results.
std::string build_transcript() {
  std::ostringstream os;
  os << "# protocol_golden.txt - golden transcript of the service line\n"
        "# protocol. Generated by protocol_golden_test; regenerate with\n"
        "#   EDEA_WRITE_GOLDEN=1 ./protocol_golden_test\n"
        "# after a *deliberate* protocol change, and commit the diff.\n";

  os << "\n[parse]\n";
  const char* request_lines[] = {
      "run mobilenet-cifar",
      "run edeanet-64 seed=7",
      "run edeanet-64 seed=7 td=16 tk=32",
      "run edeanet-64 seed=7 backend=serialized",
      "run edeanet-64 seed=7 backend=edea td=16",
      "run edeanet-64 backend=warp-drive",
      "run mobilenet-0.25x seed=3 tn=4 tm=4 kernel=5 init_cycles=3 "
      "max_tile_out=16 clock_ghz=0.8",
      "  run   mobilenet-0.5x   seed=9  ",
      "stats",
      "",
      "   \t ",
      "# a comment line",
      "walk mobilenet-cifar",
      "run",
      "stats now",
      "run net foo",
      "run net =3",
      "run net td=",
      "run net td=abc",
      "run net td=3x",
      "run net seed=-1",
      "run net clock_ghz=nan",
      "run net bogus_key=1",
      "run edeanet-64 seed=7 batch=4",
      "run edeanet-64 batch=16 backend=serialized",
      "run net batch=0",
      "run net batch=-2",
      "run net batch=+3",
      "run net batch=2x",
      "run mobilenet-v2 seed=5",
      "run efficientnet-b0 seed=5 td=16",
      "run mobilenet-v2 seed=5 dilation=2",
      "run edeanet-64 seed=7 depth_multiplier=2",
      "run mobilenet-v2 seed=5 dilation=2 depth_multiplier=2 batch=4 "
      "backend=serialized",
      "run net dilation=0",
      "run net dilation=+2",
      "run net dilation= 2",
      "run net dilation=2x",
      "run net depth_multiplier=0",
      "run net depth_multiplier=abc",
      // Pipelining verbs (PR 9): reply-mode negotiation and batch frames,
      // plus the full negative grammar - frame sizes must be strict
      // decimal counts in [1, kMaxFrameLines] and neither control verb
      // takes stray arguments.
      "mode ordered",
      "mode unordered",
      "  mode   unordered  ",
      "mode",
      "mode sideways",
      "mode unordered now",
      "batch-begin 1",
      "batch-begin 32",
      "batch-begin 4096",
      "batch-begin",
      "batch-begin 0",
      "batch-begin -1",
      "batch-begin +4",
      "batch-begin 4097",
      "batch-begin 99999999999999999999",
      "batch-begin abc",
      "batch-begin 2x",
      "batch-begin 2 2",
      "batch-end",
      "  batch-end  ",
      "batch-end now",
  };
  for (const char* line : request_lines) {
    os << ">" << line << "\n";
    os << "=" << dump(parse_request_line(line)) << "\n";
  }

  os << "\n[format-outcome]\n";
  core::SweepOutcome ok = ok_outcome();
  os << format_outcome_line(ok) << "\n";
  ok.cache_hit = true;
  os << format_outcome_line(ok) << "\n";
  // A summary-only outcome (persisted-cache hit after a restart) must
  // format bit-identically to the live cached line above.
  core::SweepOutcome persisted;
  persisted.name = ok.name;
  persisted.config = ok.config;
  persisted.ok = true;
  persisted.summary = ok.summary;
  persisted.cache_hit = true;
  persisted.summary_only = true;
  os << format_outcome_line(persisted) << "\n";
  // The same summary on the serialized dataflow: only the backend= token
  // differs (outputs are bit-exact across backends by contract).
  core::SweepOutcome serialized = ok_outcome();
  serialized.backend = "serialized";
  os << format_outcome_line(serialized) << "\n";
  // Batched outcomes echo batch= after backend=; batch=1 (all lines
  // above) stays byte-identical to the pre-batch protocol.
  core::SweepOutcome batched = ok_outcome();
  batched.batch = 8;
  os << format_outcome_line(batched) << "\n";
  // Transformed workloads echo dilation= / depth_multiplier= after batch=;
  // the default-valued lines above stay byte-identical to the pre-dilation
  // protocol.
  core::SweepOutcome dilated = ok_outcome();
  dilated.dilation = 2;
  os << format_outcome_line(dilated) << "\n";
  core::SweepOutcome transformed = ok_outcome();
  transformed.batch = 4;
  transformed.dilation = 2;
  transformed.depth_multiplier = 3;
  os << format_outcome_line(transformed) << "\n";
  core::SweepOutcome err = error_outcome();
  os << format_outcome_line(err) << "\n";
  err.cache_hit = true;
  os << format_outcome_line(err) << "\n";

  os << "\n[format-stats]\n";
  os << format_stats_line(CacheStats{0, 0, 0, 0, 0}) << "\n";
  os << format_stats_line(CacheStats{4, 8, 1, 7, 0}) << "\n";
  os << format_stats_line(CacheStats{12, 0, 0, 9, 3}) << "\n";
  // Bounded admission (max_queue > 0) appends the queued/rejected/
  // peak_queue trio; the unbounded lines above must stay byte-identical
  // to the pre-admission protocol.
  os << format_stats_line(CacheStats{4, 8, 1, 7, 0, 0, 0, 0, 2}) << "\n";
  os << format_stats_line(CacheStats{4, 8, 1, 7, 2, 1, 37, 2, 2}) << "\n";

  os << "\n[format-busy]\n";
  os << format_busy_line(1, 25) << "\n";
  os << format_busy_line(184467, 1) << "\n";

  os << "\n[format-unordered]\n";
  os << format_unordered_line(7, format_outcome_line(ok)) << "\n";
  os << format_unordered_line(12, "mode unordered") << "\n";
  os << format_unordered_line(
            3, "protocol-error expected key=value, got 'foo'")
     << "\n";
  // Busy lines are self-identifying and are never prefixed - pinned as a
  // comment of the contract rather than bytes: see format_busy_line.

  return os.str();
}

TEST(ProtocolGoldenTest, TranscriptMatchesGoldenFileByteForByte) {
  const std::string actual = build_transcript();

  if (std::getenv("EDEA_WRITE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
    out << actual;
    GTEST_SKIP() << "golden file regenerated at " << kGoldenPath;
  }

  std::ifstream in(kGoldenPath, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << kGoldenPath
                         << " (regenerate with EDEA_WRITE_GOLDEN=1)";
  std::ostringstream content;
  content << in.rdbuf();
  const std::string expected = content.str();

  // One byte off is a protocol change: make it deliberate or revert it.
  EXPECT_EQ(expected, actual)
      << "protocol output changed; if intentional, regenerate "
      << kGoldenPath << " with EDEA_WRITE_GOLDEN=1 and commit the diff";
}

TEST(ProtocolGoldenTest, GoldenRequestsRoundTripThroughTheParser) {
  // Every `>`-prefixed request in the golden file must parse to exactly
  // the `=`-dumped result on the following line - the file is executable
  // documentation, so a hand edit that breaks the pairing fails here.
  std::ifstream in(kGoldenPath, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << kGoldenPath;

  std::string line;
  std::string pending_request;
  bool have_request = false;
  int checked = 0;
  while (std::getline(in, line)) {
    if (!line.empty() && line.front() == '>') {
      ASSERT_FALSE(have_request) << "two consecutive '>' lines";
      pending_request = line.substr(1);
      have_request = true;
      continue;
    }
    if (!line.empty() && line.front() == '=') {
      ASSERT_TRUE(have_request) << "'=' line without a '>' request";
      EXPECT_EQ(line.substr(1), dump(parse_request_line(pending_request)))
          << "request: '" << pending_request << "'";
      have_request = false;
      ++checked;
    }
  }
  EXPECT_FALSE(have_request) << "trailing '>' line without a result";
  EXPECT_GE(checked, 20) << "golden file lost its parse section";
}

TEST(ProtocolGoldenTest, InfeasibleRequestRepliesWithoutASourcePath) {
  // error_outcome() above is hand-built; this serves the same kind of
  // failure for real. The message comes from a precondition deep in the
  // simulator and must reach the wire as the expression and reason only,
  // never the path of the file that checked it - reply bytes may not
  // depend on where the tree was built.
  std::istringstream in("run mobilenet-0.25x seed=3 kernel=5\n");
  std::ostringstream out;
  StdioStream stream(in, out);
  SimulationService service;
  WorkloadCatalog catalog;
  (void)Session(service, catalog).serve(stream);
  EXPECT_EQ(out.str(),
            "error mobilenet-0.25x@3 "
            "EdeaConfig{Tn=2,Tm=2,Td=8,Tk=16,k=5,init=9,tile=8,clk=1GHz} "
            "backend=edea cache=miss msg=precondition failed: "
            "(spec.kernel == config_.kernel) - layer kernel 3 does not match "
            "the engine's 5x5 datapath\n");
}

}  // namespace
}  // namespace edea::service
