// protocol_test - the simulation service's line protocol: request parsing
// (grammar, overrides, malformed input never throws) and response
// formatting (outcome and stats lines are deterministic and complete).
#include "service/protocol.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/sweep_runner.hpp"

namespace edea::service {
namespace {

TEST(ProtocolParseTest, MinimalRunRequestUsesPaperDefaults) {
  const ParsedLine p = parse_request_line("run mobilenet-cifar");
  ASSERT_EQ(p.kind, ParsedLine::Kind::kRun);
  EXPECT_EQ(p.request.network, "mobilenet-cifar");
  EXPECT_EQ(p.request.seed, 1u);
  EXPECT_EQ(p.request.config, core::EdeaConfig::paper());
  EXPECT_EQ(p.request.job_name(), "mobilenet-cifar@1");
}

TEST(ProtocolParseTest, OverridesApplyToConfigAndSeed) {
  const ParsedLine p = parse_request_line(
      "run edeanet-64 seed=42 tn=4 tm=4 td=16 tk=32 kernel=5 init_cycles=3 "
      "max_tile_out=16 clock_ghz=0.8");
  ASSERT_EQ(p.kind, ParsedLine::Kind::kRun);
  EXPECT_EQ(p.request.seed, 42u);
  EXPECT_EQ(p.request.config.tn, 4);
  EXPECT_EQ(p.request.config.tm, 4);
  EXPECT_EQ(p.request.config.td, 16);
  EXPECT_EQ(p.request.config.tk, 32);
  EXPECT_EQ(p.request.config.kernel, 5);
  EXPECT_EQ(p.request.config.init_cycles, 3);
  EXPECT_EQ(p.request.config.max_tile_out, 16);
  EXPECT_DOUBLE_EQ(p.request.config.clock_ghz, 0.8);
}

TEST(ProtocolParseTest, BlankAndCommentLinesAreEmpty) {
  EXPECT_EQ(parse_request_line("").kind, ParsedLine::Kind::kEmpty);
  EXPECT_EQ(parse_request_line("   \t ").kind, ParsedLine::Kind::kEmpty);
  EXPECT_EQ(parse_request_line("# run nothing").kind,
            ParsedLine::Kind::kEmpty);
}

TEST(ProtocolParseTest, StatsLine) {
  EXPECT_EQ(parse_request_line("stats").kind, ParsedLine::Kind::kStats);
  EXPECT_EQ(parse_request_line("stats now").kind, ParsedLine::Kind::kError);
}

TEST(ProtocolParseTest, MalformedLinesAreErrorsNotExceptions) {
  for (const char* bad : {
           "walk mobilenet-cifar",        // unknown verb
           "run",                         // missing network
           "run net foo",                 // not key=value
           "run net =3",                  // empty key
           "run net td=",                 // empty value
           "run net td=abc",              // non-numeric
           "run net td=3x",               // trailing junk
           "run net seed=-4",             // negative seed
           "run net volume=11",           // unknown key
           "run net clock_ghz=fast",      // non-numeric double
           "run net clock_ghz=nan",       // NaN would poison the cache key
           "run net clock_ghz=inf",       // non-finite, physically absurd
       }) {
    SCOPED_TRACE(bad);
    const ParsedLine p = parse_request_line(bad);
    EXPECT_EQ(p.kind, ParsedLine::Kind::kError);
    EXPECT_FALSE(p.error.empty());
  }
}

TEST(ProtocolParseTest, BatchKeyParsesStrictly) {
  // Default: single image.
  const ParsedLine def = parse_request_line("run edeanet-64");
  ASSERT_EQ(def.kind, ParsedLine::Kind::kRun);
  EXPECT_EQ(def.request.batch, 1);

  const ParsedLine batched = parse_request_line("run edeanet-64 batch=16");
  ASSERT_EQ(batched.kind, ParsedLine::Kind::kRun);
  EXPECT_EQ(batched.request.batch, 16);

  // Everything std::stoi would shrug at is a protocol error naming the
  // key: zero/negative batches, sign prefixes, whitespace, trailing junk.
  for (const char* bad : {
           "run edeanet-64 batch=0",     // no images is not a run
           "run edeanet-64 batch=-1",    // negative
           "run edeanet-64 batch=-16",   // negative, multi-digit
           "run edeanet-64 batch=abc",   // non-numeric
           "run edeanet-64 batch=+2",    // stoi would accept the '+'
           "run edeanet-64 batch= 2",    // tokenizes as an empty value
           "run edeanet-64 batch=2x",    // trailing junk
           "run edeanet-64 batch=1.5",   // not an integer
       }) {
    SCOPED_TRACE(bad);
    const ParsedLine p = parse_request_line(bad);
    EXPECT_EQ(p.kind, ParsedLine::Kind::kError);
    EXPECT_FALSE(p.error.empty());
  }
  // The errors the batch parser itself produces name the offending key.
  const ParsedLine zero = parse_request_line("run edeanet-64 batch=0");
  EXPECT_NE(zero.error.find("bad batch '0'"), std::string::npos)
      << zero.error;
}

TEST(ProtocolParseTest, CallerDefaultBatchAppliesWhenLineNamesNone) {
  // The server's --batch: requests without batch= resolve to it ...
  const ParsedLine def = parse_request_line("run edeanet-64", {.batch = 4});
  ASSERT_EQ(def.kind, ParsedLine::Kind::kRun);
  EXPECT_EQ(def.request.batch, 4);
  // ... and an explicit key still wins.
  const ParsedLine exp =
      parse_request_line("run edeanet-64 batch=2", {.batch = 4});
  ASSERT_EQ(exp.kind, ParsedLine::Kind::kRun);
  EXPECT_EQ(exp.request.batch, 2);
  // A non-positive *default* is caller configuration gone wrong.
  EXPECT_THROW((void)parse_request_line("run edeanet-64", {.batch = 0}),
               PreconditionError);
  EXPECT_THROW((void)parse_request_line("run edeanet-64", {.batch = -3}),
               PreconditionError);
}

TEST(ProtocolFormatTest, OutcomeLinesEchoBatchOnlyWhenBatched) {
  // batch=1 lines must stay byte-identical to the pre-batch protocol.
  core::SweepOutcome outcome;
  outcome.name = "edeanet-64@7";
  outcome.ok = true;
  EXPECT_EQ(format_outcome_line(outcome).find("batch="), std::string::npos)
      << format_outcome_line(outcome);
  outcome.batch = 8;
  EXPECT_NE(format_outcome_line(outcome).find(" backend=edea batch=8 "),
            std::string::npos)
      << format_outcome_line(outcome);
  outcome.ok = false;
  outcome.error = "boom";
  EXPECT_NE(format_outcome_line(outcome).find(" batch=8 cache="),
            std::string::npos)
      << format_outcome_line(outcome);
}

TEST(ProtocolParseTest, DilationAndDepthMultiplierKeysParseStrictly) {
  // Defaults: the untransformed workload.
  const ParsedLine def = parse_request_line("run edeanet-64");
  ASSERT_EQ(def.kind, ParsedLine::Kind::kRun);
  EXPECT_EQ(def.request.dilation, 1);
  EXPECT_EQ(def.request.depth_multiplier, 1);

  const ParsedLine both = parse_request_line(
      "run edeanet-64 dilation=2 depth_multiplier=3");
  ASSERT_EQ(both.kind, ParsedLine::Kind::kRun);
  EXPECT_EQ(both.request.dilation, 2);
  EXPECT_EQ(both.request.depth_multiplier, 3);

  // The same strict-integer discipline as batch=: zero, sign prefixes,
  // whitespace, trailing junk and non-integers are protocol errors.
  for (const char* bad : {
           "run edeanet-64 dilation=0",           // dense is dilation=1
           "run edeanet-64 dilation=-2",          // negative
           "run edeanet-64 dilation=+2",          // stoi would accept '+'
           "run edeanet-64 dilation= 2",          // empty value token
           "run edeanet-64 dilation=2x",          // trailing junk
           "run edeanet-64 dilation=1.5",         // not an integer
           "run edeanet-64 depth_multiplier=0",   // no output channels
           "run edeanet-64 depth_multiplier=-1",  // negative
           "run edeanet-64 depth_multiplier=+3",  // sign prefix
           "run edeanet-64 depth_multiplier= 3",  // empty value token
           "run edeanet-64 depth_multiplier=3x",  // trailing junk
           "run edeanet-64 depth_multiplier=abc", // non-numeric
       }) {
    SCOPED_TRACE(bad);
    const ParsedLine p = parse_request_line(bad);
    EXPECT_EQ(p.kind, ParsedLine::Kind::kError);
    EXPECT_FALSE(p.error.empty());
  }
  // The errors name the offending key and value.
  const ParsedLine zero = parse_request_line("run edeanet-64 dilation=0");
  EXPECT_NE(zero.error.find("bad dilation '0'"), std::string::npos)
      << zero.error;
  const ParsedLine junk =
      parse_request_line("run edeanet-64 depth_multiplier=3x");
  EXPECT_NE(junk.error.find("bad depth_multiplier '3x'"), std::string::npos)
      << junk.error;
}

TEST(ProtocolParseTest, CallerDefaultTransformsApplyWhenLineNamesNone) {
  // The server's --dilation / --depth-multiplier: requests without the
  // keys resolve to the caller defaults ...
  const ParsedLine def = parse_request_line(
      "run edeanet-64", {.dilation = 2, .depth_multiplier = 3});
  ASSERT_EQ(def.kind, ParsedLine::Kind::kRun);
  EXPECT_EQ(def.request.dilation, 2);
  EXPECT_EQ(def.request.depth_multiplier, 3);
  // ... and explicit keys still win.
  const ParsedLine exp =
      parse_request_line("run edeanet-64 dilation=4 depth_multiplier=1",
                         {.dilation = 2, .depth_multiplier = 3});
  ASSERT_EQ(exp.kind, ParsedLine::Kind::kRun);
  EXPECT_EQ(exp.request.dilation, 4);
  EXPECT_EQ(exp.request.depth_multiplier, 1);
  // Non-positive *defaults* are caller configuration gone wrong.
  EXPECT_THROW((void)parse_request_line("run edeanet-64", {.dilation = 0}),
               PreconditionError);
  EXPECT_THROW(
      (void)parse_request_line("run edeanet-64", {.depth_multiplier = -2}),
      PreconditionError);
}

TEST(ProtocolFormatTest, OutcomeLinesEchoTransformsOnlyWhenTransformed) {
  // Default-valued knobs stay silent, so pre-dilation response streams
  // (and the golden file) are byte-identical.
  core::SweepOutcome outcome;
  outcome.name = "edeanet-64@7";
  outcome.ok = true;
  EXPECT_EQ(format_outcome_line(outcome).find("dilation="), std::string::npos)
      << format_outcome_line(outcome);
  EXPECT_EQ(format_outcome_line(outcome).find("depth_multiplier="),
            std::string::npos)
      << format_outcome_line(outcome);
  // Echoed after batch, each only when > 1, on ok and error lines alike.
  outcome.batch = 8;
  outcome.dilation = 2;
  outcome.depth_multiplier = 3;
  EXPECT_NE(format_outcome_line(outcome).find(
                " backend=edea batch=8 dilation=2 depth_multiplier=3 "),
            std::string::npos)
      << format_outcome_line(outcome);
  outcome.batch = 1;
  outcome.depth_multiplier = 1;
  EXPECT_NE(format_outcome_line(outcome).find(" backend=edea dilation=2 "),
            std::string::npos)
      << format_outcome_line(outcome);
  outcome.ok = false;
  outcome.error = "boom";
  EXPECT_NE(format_outcome_line(outcome).find(" dilation=2 cache="),
            std::string::npos)
      << format_outcome_line(outcome);
}

TEST(ProtocolParseTest, ConfigKeysShareTheStrictIntegerGrammar) {
  // Every EdeaConfig override key now parses with the same strict grammar
  // as batch=: signs, whitespace, trailing junk, and negatives are
  // protocol errors naming the value - not values smuggled through to
  // fail (or worse, not fail) in config validation.
  for (const char* key : {"tn", "tm", "td", "tk", "kernel", "init_cycles",
                          "max_tile_out"}) {
    for (const char* value : {"+4", "4x", "-8", "1.5", "0x4", ""}) {
      const std::string line =
          std::string("run edeanet-64 ") + key + "=" + value;
      SCOPED_TRACE(line);
      const ParsedLine p = parse_request_line(line);
      EXPECT_EQ(p.kind, ParsedLine::Kind::kError);
      EXPECT_FALSE(p.error.empty());
    }
    const ParsedLine junk =
        parse_request_line(std::string("run edeanet-64 ") + key + "=+4");
    EXPECT_NE(junk.error.find("bad value '+4' for key '" + std::string(key) +
                              "'"),
              std::string::npos)
        << junk.error;
  }
  // Zero still parses - semantic ranges (e.g. tn >= 1, init_cycles >= 0)
  // are EdeaConfig::validate's job, reported in the outcome line.
  const ParsedLine zero = parse_request_line("run edeanet-64 init_cycles=0");
  ASSERT_EQ(zero.kind, ParsedLine::Kind::kRun);
  EXPECT_EQ(zero.request.config.init_cycles, 0);
}

TEST(ProtocolParseTest, StrictParsersRejectWhitespaceDirectly) {
  // " 4" can never arrive through the whitespace-splitting tokenizer, so
  // the guarantee is probed at the parser seam the line parser uses.
  int iv = -1;
  std::uint64_t uv = 0;
  for (const char* bad : {" 4", "4 ", "\t4", "+4", "-4", "4x", ""}) {
    SCOPED_TRACE(std::string("'") + bad + "'");
    EXPECT_FALSE(parse_strict_int(bad, &iv));
    EXPECT_FALSE(parse_strict_count(bad, &iv));
    EXPECT_FALSE(parse_strict_u64(bad, &uv));
  }
  EXPECT_EQ(iv, -1);  // rejected parses never touch *out
  // The boundary between the two int flavors: 0 is a valid config value
  // but not a valid count.
  EXPECT_TRUE(parse_strict_int("0", &iv));
  EXPECT_EQ(iv, 0);
  EXPECT_FALSE(parse_strict_count("0", &iv));
  EXPECT_TRUE(parse_strict_count("1", &iv));
  EXPECT_EQ(iv, 1);
}

TEST(ProtocolParseTest, OutOfRangeValuesAreProtocolErrorsNamingTheValue) {
  // Overflow is detected by digit accumulation with an explicit range
  // check - never via std::stoi exception behavior. Every numeric key is
  // covered: INT_MAX+1 for the int keys, UINT64_MAX+1 for seed.
  const std::string big_int = "99999999999999";           // > INT_MAX
  const std::string int_edge = "2147483648";              // INT_MAX + 1
  const std::string big_u64 = "18446744073709551616";     // UINT64_MAX + 1
  for (const char* key : {"batch", "dilation", "depth_multiplier", "tn",
                          "tm", "td", "tk", "kernel", "init_cycles",
                          "max_tile_out"}) {
    for (const std::string& value : {big_int, int_edge}) {
      const std::string line =
          std::string("run edeanet-64 ") + key + "=" + value;
      SCOPED_TRACE(line);
      const ParsedLine p = parse_request_line(line);
      EXPECT_EQ(p.kind, ParsedLine::Kind::kError);
      // The error names the offending value.
      EXPECT_NE(p.error.find("'" + value + "'"), std::string::npos)
          << p.error;
    }
  }
  const ParsedLine seed =
      parse_request_line("run edeanet-64 seed=" + big_u64);
  ASSERT_EQ(seed.kind, ParsedLine::Kind::kError);
  EXPECT_NE(seed.error.find("bad seed '" + big_u64 + "'"),
            std::string::npos)
      << seed.error;
  // The exact boundary values still parse.
  const ParsedLine max_int =
      parse_request_line("run edeanet-64 init_cycles=2147483647");
  ASSERT_EQ(max_int.kind, ParsedLine::Kind::kRun);
  EXPECT_EQ(max_int.request.config.init_cycles, 2147483647);
  const ParsedLine max_seed =
      parse_request_line("run edeanet-64 seed=18446744073709551615");
  ASSERT_EQ(max_seed.kind, ParsedLine::Kind::kRun);
  EXPECT_EQ(max_seed.request.seed, 18446744073709551615ull);
}

TEST(ProtocolParseTest, SeedSharesTheStrictGrammar) {
  // ("seed=" with no value at all is rejected earlier, at key=value shape.)
  for (const char* bad : {"+7", "7x", "-7", "7.0"}) {
    const std::string line = std::string("run edeanet-64 seed=") + bad;
    SCOPED_TRACE(line);
    const ParsedLine p = parse_request_line(line);
    EXPECT_EQ(p.kind, ParsedLine::Kind::kError);
    EXPECT_NE(p.error.find("bad seed"), std::string::npos) << p.error;
  }
}

TEST(ProtocolFormatTest, OkOutcomeLineCarriesSummaryAndCacheFlag) {
  core::SweepOutcome outcome;
  outcome.name = "edeanet-64@7";
  outcome.ok = true;
  outcome.cache_hit = true;
  const std::string line = format_outcome_line(outcome);
  EXPECT_EQ(line.rfind("ok edeanet-64@7 ", 0), 0u) << line;
  EXPECT_NE(line.find("cycles=0"), std::string::npos) << line;
  EXPECT_NE(line.find("gops=0.00"), std::string::npos) << line;
  EXPECT_NE(line.find("out=0x"), std::string::npos) << line;
  EXPECT_NE(line.find("cache=hit"), std::string::npos) << line;
}

TEST(ProtocolFormatTest, ErrorOutcomeLineCarriesMessage) {
  core::SweepOutcome outcome;
  outcome.name = "edeanet-64@7";
  outcome.ok = false;
  outcome.error = "engine kernel mismatch";
  const std::string line = format_outcome_line(outcome);
  EXPECT_EQ(line.rfind("error edeanet-64@7 ", 0), 0u) << line;
  EXPECT_NE(line.find("msg=engine kernel mismatch"), std::string::npos)
      << line;
  EXPECT_NE(line.find("cache=miss"), std::string::npos) << line;
}

TEST(ProtocolFormatTest, StatsLineIsExact) {
  CacheStats stats;
  stats.hits = 3;
  stats.misses = 9;
  stats.evictions = 1;
  stats.entries = 8;
  stats.in_flight = 2;
  EXPECT_EQ(format_stats_line(stats),
            "stats hits=3 misses=9 evictions=1 entries=8 inflight=2");
}

TEST(ProtocolFormatTest, SummaryOnlyOutcomeFormatsLikeTheLiveOne) {
  // A persisted-cache hit after a restart carries only the RunSummary;
  // its line must be byte-identical to the live cached line.
  core::SweepOutcome live;
  live.name = "edeanet-64@7";
  live.ok = true;
  live.cache_hit = true;
  live.summary.layer_count = 6;
  live.summary.total_cycles = 4242;
  live.summary.total_ops = 990;
  live.summary.average_gops = 1.23456;
  live.summary.output_hash = 0xDEADBEEFull;

  core::SweepOutcome persisted = live;  // same summary, but no result
  persisted.summary_only = true;
  persisted.result = core::NetworkRunResult{};

  EXPECT_EQ(format_outcome_line(live), format_outcome_line(persisted));
  EXPECT_NE(format_outcome_line(live).find("cycles=4242"),
            std::string::npos);
}

TEST(ProtocolParseTest, BackendKeyResolvesAgainstTheRegistry) {
  // Default: the protocol default backend.
  const ParsedLine def = parse_request_line("run edeanet-64");
  ASSERT_EQ(def.kind, ParsedLine::Kind::kRun);
  EXPECT_EQ(def.request.backend, "edea");

  // Explicit override to another registered dataflow.
  const ParsedLine serialized =
      parse_request_line("run edeanet-64 backend=serialized");
  ASSERT_EQ(serialized.kind, ParsedLine::Kind::kRun);
  EXPECT_EQ(serialized.request.backend, "serialized");

  // Unknown ids are protocol errors naming the known vocabulary - a
  // typo'd dataflow must never silently simulate something else.
  const ParsedLine unknown =
      parse_request_line("run edeanet-64 backend=warp-drive");
  ASSERT_EQ(unknown.kind, ParsedLine::Kind::kError);
  EXPECT_NE(unknown.error.find("unknown backend 'warp-drive'"),
            std::string::npos)
      << unknown.error;
  EXPECT_NE(unknown.error.find("edea"), std::string::npos) << unknown.error;
  EXPECT_NE(unknown.error.find("serialized"), std::string::npos)
      << unknown.error;
}

TEST(ProtocolParseTest, CallerDefaultBackendAppliesWhenLineNamesNone) {
  // The server's --backend: requests without backend= resolve to it ...
  const ParsedLine def = parse_request_line("run edeanet-64",
                                              {.backend = "serialized"});
  ASSERT_EQ(def.kind, ParsedLine::Kind::kRun);
  EXPECT_EQ(def.request.backend, "serialized");
  // ... and an explicit key still wins.
  const ParsedLine exp =
      parse_request_line("run edeanet-64 backend=edea",
                         {.backend = "serialized"});
  ASSERT_EQ(exp.kind, ParsedLine::Kind::kRun);
  EXPECT_EQ(exp.request.backend, "edea");
  // An unregistered *default* is caller configuration gone wrong, not a
  // client's malformed line - precondition, not protocol error.
  EXPECT_THROW((void)parse_request_line("run edeanet-64",
                                        {.backend = "warp-drive"}),
               PreconditionError);
}

TEST(ProtocolFormatTest, OutcomeLinesEchoTheBackend) {
  core::SweepOutcome outcome;
  outcome.name = "edeanet-64@7";
  outcome.ok = true;
  EXPECT_NE(format_outcome_line(outcome).find(" backend=edea "),
            std::string::npos)
      << format_outcome_line(outcome);
  outcome.backend = "serialized";
  EXPECT_NE(format_outcome_line(outcome).find(" backend=serialized "),
            std::string::npos);
  outcome.ok = false;
  outcome.error = "boom";
  EXPECT_NE(format_outcome_line(outcome).find(" backend=serialized "),
            std::string::npos);
}

TEST(ProtocolParseTest, ModeLineParsesStrictly) {
  const ParsedLine ordered = parse_request_line("mode ordered");
  ASSERT_EQ(ordered.kind, ParsedLine::Kind::kMode);
  EXPECT_FALSE(ordered.unordered);
  const ParsedLine unordered = parse_request_line("mode unordered");
  ASSERT_EQ(unordered.kind, ParsedLine::Kind::kMode);
  EXPECT_TRUE(unordered.unordered);
  // The tokenizer's usual whitespace tolerance applies.
  EXPECT_EQ(parse_request_line("  mode \t unordered ").kind,
            ParsedLine::Kind::kMode);
  // Anything else is a protocol error naming the legal vocabulary.
  for (const char* bad :
       {"mode", "mode sideways", "mode unordered now", "mode ORDERED"}) {
    SCOPED_TRACE(bad);
    const ParsedLine p = parse_request_line(bad);
    EXPECT_EQ(p.kind, ParsedLine::Kind::kError);
    EXPECT_NE(p.error.find("ordered|unordered"), std::string::npos)
        << p.error;
  }
}

TEST(ProtocolParseTest, BatchFrameLinesParseStrictly) {
  const ParsedLine begin = parse_request_line("batch-begin 32");
  ASSERT_EQ(begin.kind, ParsedLine::Kind::kBatchBegin);
  EXPECT_EQ(begin.frame_size, 32u);
  // The full frame limit is itself a legal count ...
  const ParsedLine top = parse_request_line("batch-begin 4096");
  ASSERT_EQ(top.kind, ParsedLine::Kind::kBatchBegin);
  EXPECT_EQ(top.frame_size, kMaxFrameLines);
  // ... and one past it is rejected naming the limit, so a client bug
  // cannot make a session buffer unboundedly.
  const ParsedLine over = parse_request_line("batch-begin 4097");
  ASSERT_EQ(over.kind, ParsedLine::Kind::kError);
  EXPECT_NE(over.error.find("4096"), std::string::npos) << over.error;

  EXPECT_EQ(parse_request_line("batch-end").kind,
            ParsedLine::Kind::kBatchEnd);
  EXPECT_EQ(parse_request_line("  batch-end  ").kind,
            ParsedLine::Kind::kBatchEnd);

  // The count shares the strict digit-first integer grammar.
  for (const char* bad :
       {"batch-begin", "batch-begin 0", "batch-begin -1", "batch-begin +4",
        "batch-begin 4x", "batch-begin abc", "batch-begin 2 2",
        "batch-begin 99999999999999999999", "batch-end now"}) {
    SCOPED_TRACE(bad);
    const ParsedLine p = parse_request_line(bad);
    EXPECT_EQ(p.kind, ParsedLine::Kind::kError);
    EXPECT_FALSE(p.error.empty());
  }
}

TEST(ProtocolFormatTest, BusyLineIsSelfIdentifying) {
  // Busy replies carry their own id= even in ordered mode - the client
  // must be able to match the rejection to the request it has to retry
  // without counting reply positions.
  EXPECT_EQ(format_busy_line(7, 25), "busy id=7 retry_ms=25");
  EXPECT_EQ(format_busy_line(18446744073709551615ull, 1),
            "busy id=18446744073709551615 retry_ms=1");
}

TEST(ProtocolFormatTest, UnorderedPrefixWrapsAnyReplyLine) {
  core::SweepOutcome outcome;
  outcome.name = "edeanet-64@7";
  outcome.ok = true;
  const std::string bare = format_outcome_line(outcome);
  const std::string framed = format_unordered_line(42, bare);
  EXPECT_EQ(framed, "id=42 " + bare);
  // Error replies ride the same prefix, so out-of-order error delivery
  // is still attributable.
  EXPECT_EQ(format_unordered_line(3, "error ! msg=bad verb cache=miss"),
            "id=3 error ! msg=bad verb cache=miss");
}

TEST(ProtocolFormatTest, StatsLineGrowsAdmissionFieldsOnlyWhenBounded) {
  // Unbounded services keep the pre-admission stats line byte-identical.
  CacheStats stats;
  stats.hits = 3;
  stats.misses = 9;
  stats.evictions = 1;
  stats.entries = 8;
  stats.in_flight = 2;
  EXPECT_EQ(format_stats_line(stats),
            "stats hits=3 misses=9 evictions=1 entries=8 inflight=2");
  // With a bounded queue the admission trio appears, zeros included -
  // an operator watching an overloaded server needs to see rejected=0
  // explicitly to know the bound was never hit.
  stats.max_queue = 4;
  stats.queued = 1;
  stats.rejected = 37;
  stats.peak_queue = 2;
  EXPECT_EQ(format_stats_line(stats),
            "stats hits=3 misses=9 evictions=1 entries=8 inflight=2 "
            "queued=1 rejected=37 peak_queue=2");
  stats.queued = 0;
  stats.rejected = 0;
  stats.peak_queue = 0;
  EXPECT_EQ(format_stats_line(stats),
            "stats hits=3 misses=9 evictions=1 entries=8 inflight=2 "
            "queued=0 rejected=0 peak_queue=0");
}

TEST(ProtocolParseTest, BusyLineParsesStrictlyAsTheFormatterInverse) {
  std::uint64_t id = 0;
  int retry_ms = 0;
  ASSERT_TRUE(parse_busy_line("busy id=7 retry_ms=25", &id, &retry_ms));
  EXPECT_EQ(id, 7u);
  EXPECT_EQ(retry_ms, 25);
  ASSERT_TRUE(parse_busy_line(format_busy_line(18446744073709551615ull, 1),
                              &id, &retry_ms));
  EXPECT_EQ(id, 18446744073709551615ull);
  EXPECT_EQ(retry_ms, 1);

  // Strictness: the grammar is exactly what format_busy_line emits.
  for (const char* bad :
       {"busy", "busy id=7", "busy id=7 retry_ms=", "busy id= retry_ms=25",
        "busy id=7 retry_ms=25 extra", "busy id=7  retry_ms=25",
        "busy id=x retry_ms=25", "busy id=7 retry_ms=2.5",
        "busy id=7 retry_ms=-1", "Busy id=7 retry_ms=25",
        "busy id=18446744073709551616 retry_ms=25",
        "busy id=7 retry_ms=9999999999999"}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(parse_busy_line(bad, &id, &retry_ms));
  }
}

TEST(ProtocolParseTest, UnorderedLineParsesStrictlyAsThePrefixInverse) {
  std::uint64_t id = 0;
  std::string rest;
  ASSERT_TRUE(parse_unordered_line("id=42 ok edeanet-64@7 cache=hit", &id,
                                   &rest));
  EXPECT_EQ(id, 42u);
  EXPECT_EQ(rest, "ok edeanet-64@7 cache=hit");
  ASSERT_TRUE(
      parse_unordered_line(format_unordered_line(3, "stats hits=0"), &id,
                           &rest));
  EXPECT_EQ(id, 3u);
  EXPECT_EQ(rest, "stats hits=0");

  for (const char* bad :
       {"", "id=", "id=7", "id=7x ok", "id= ok", "id =7 ok", "Id=7 ok",
        "7 ok", "id=18446744073709551616 ok"}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(parse_unordered_line(bad, &id, &rest));
  }
  // The payload may itself be empty-ish after the single separator space.
  ASSERT_TRUE(parse_unordered_line("id=7 x", &id, &rest));
  EXPECT_EQ(rest, "x");
}

TEST(ProtocolRoundTripTest, ReplyParsersInvertTheFormattersForAnyCounts) {
  // Round-trip a spread of values through each formatter/parser pair.
  for (const std::uint64_t id : {1ull, 999ull, 1ull << 40}) {
    for (const int retry : {1, 25, 10000}) {
      std::uint64_t got_id = 0;
      int got_retry = 0;
      ASSERT_TRUE(parse_busy_line(format_busy_line(id, retry), &got_id,
                                  &got_retry));
      EXPECT_EQ(got_id, id);
      EXPECT_EQ(got_retry, retry);
    }
    std::uint64_t got_id = 0;
    std::string rest;
    ASSERT_TRUE(parse_unordered_line(
        format_unordered_line(id, "error x@1 msg=boom cache=miss"), &got_id,
        &rest));
    EXPECT_EQ(got_id, id);
    EXPECT_EQ(rest, "error x@1 msg=boom cache=miss");
  }
}

TEST(ProtocolRoundTripTest, IdenticalRequestLinesYieldIdenticalKeys) {
  const ParsedLine a = parse_request_line("run edeanet-64 seed=7 td=16");
  const ParsedLine b = parse_request_line("run edeanet-64 td=16 seed=7");
  ASSERT_EQ(a.kind, ParsedLine::Kind::kRun);
  ASSERT_EQ(b.kind, ParsedLine::Kind::kRun);
  EXPECT_EQ(a.request.network, b.request.network);
  EXPECT_EQ(a.request.seed, b.request.seed);
  EXPECT_EQ(a.request.config, b.request.config);
  EXPECT_EQ(a.request.config.hash(), b.request.config.hash());
}

}  // namespace
}  // namespace edea::service
