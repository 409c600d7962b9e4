// server_cli_test - the simulation server's and client's command lines as
// library contracts: the --help texts document every flag (the satellite
// acceptance: each documented option appears in the output), and the
// parsers accept the documented grammar while rejecting malformed or
// contradictory invocations with a reason.
#include "service/server_cli.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "service/client_cli.hpp"

namespace edea::service {
namespace {

ServerConfig parse(const std::vector<const char*>& args) {
  return parse_server_args(static_cast<int>(args.size()), args.data());
}

ClientConfig parse_client(const std::vector<const char*>& args) {
  return parse_client_args(static_cast<int>(args.size()), args.data());
}

TEST(ServerCliTest, HelpTextMentionsEveryDocumentedFlag) {
  const std::string usage = server_usage();
  for (const char* flag :
       {"--help", "--listen", "--max-sessions", "--cache-file", "--workers",
        "--cache", "--tile-parallelism", "--backend", "--batch",
        "--dilation", "--depth-multiplier", "--verify", "--max-queue",
        "--busy-retry-ms", "--ordered"}) {
    SCOPED_TRACE(flag);
    EXPECT_NE(usage.find(flag), std::string::npos)
        << "flag missing from simulation_server --help output";
  }
  // Both serving modes are shown as invocation forms.
  EXPECT_NE(usage.find("stdio mode"), std::string::npos);
  EXPECT_NE(usage.find("TCP socket mode"), std::string::npos);
}

TEST(ServerCliTest, DefaultsMatchTheServiceDefaults) {
  const ServerConfig config = parse({});
  EXPECT_TRUE(config.error.empty()) << config.error;
  EXPECT_FALSE(config.help);
  EXPECT_FALSE(config.verify);
  EXPECT_FALSE(config.listen);
  EXPECT_EQ(config.max_sessions, 0u);
  EXPECT_TRUE(config.cache_file.empty());
  EXPECT_EQ(config.service.worker_threads, 0u);
  EXPECT_EQ(config.service.cache_capacity, ServiceOptions().cache_capacity);
  EXPECT_EQ(config.service.tile_parallelism, 1);
  EXPECT_EQ(config.defaults.backend, "edea");
  EXPECT_EQ(config.defaults.batch, 1);
  EXPECT_EQ(config.defaults.dilation, 1);
  EXPECT_EQ(config.defaults.depth_multiplier, 1);
  EXPECT_EQ(config.service.max_queue, 0u);
  EXPECT_EQ(config.busy_retry_ms, 25);
  EXPECT_FALSE(config.ordered);
}

TEST(ServerCliTest, EveryFlagParses) {
  const ServerConfig config =
      parse({"--listen", "47163", "--max-sessions", "2", "--cache-file",
             "/tmp/edea.cache", "--workers", "3", "--cache", "64",
             "--tile-parallelism", "4", "--backend", "serialized",
             "--batch", "8", "--dilation", "2", "--depth-multiplier", "3",
             "--max-queue", "2", "--busy-retry-ms", "5", "--ordered"});
  ASSERT_TRUE(config.error.empty()) << config.error;
  EXPECT_TRUE(config.listen);
  EXPECT_EQ(config.port, 47163);
  EXPECT_EQ(config.max_sessions, 2u);
  EXPECT_EQ(config.cache_file, "/tmp/edea.cache");
  EXPECT_EQ(config.service.worker_threads, 3u);
  EXPECT_EQ(config.service.cache_capacity, 64u);
  EXPECT_EQ(config.service.tile_parallelism, 4);
  EXPECT_EQ(config.defaults.backend, "serialized");
  EXPECT_EQ(config.defaults.batch, 8);
  EXPECT_EQ(config.defaults.dilation, 2);
  EXPECT_EQ(config.defaults.depth_multiplier, 3);
  EXPECT_EQ(config.service.max_queue, 2u);
  EXPECT_EQ(config.busy_retry_ms, 5);
  EXPECT_TRUE(config.ordered);
}

TEST(ServerCliTest, ListenPortMustBeNumericAndInRange) {
  // The satellite bugfix contract: a port outside [0, 65535] or a
  // non-numeric string answers a clear range-naming error, never
  // whatever std::stoi would have done.
  for (const char* bad :
       {"65536", "70000", "99999999999999999999", "-1", "-0", "8080x",
        "abc", "0x1F90", " 80", ""}) {
    SCOPED_TRACE(std::string("port '") + bad + "'");
    const ServerConfig config = parse({"--listen", bad});
    EXPECT_FALSE(config.error.empty());
    EXPECT_NE(config.error.find("[0, 65535]"), std::string::npos)
        << config.error;
    EXPECT_FALSE(config.listen);
  }
  // The boundary values themselves are fine.
  EXPECT_TRUE(parse({"--listen", "0"}).error.empty());
  const ServerConfig top = parse({"--listen", "65535"});
  EXPECT_TRUE(top.error.empty());
  EXPECT_EQ(top.port, 65535);
}

TEST(ServerCliTest, UnknownBackendIsRejectedNamingTheRegistry) {
  const ServerConfig config = parse({"--backend", "warp-drive"});
  ASSERT_FALSE(config.error.empty());
  EXPECT_NE(config.error.find("warp-drive"), std::string::npos);
  EXPECT_NE(config.error.find("edea"), std::string::npos);
  EXPECT_NE(config.error.find("serialized"), std::string::npos);
  EXPECT_FALSE(parse({"--backend"}).error.empty());  // missing value
}

TEST(ServerCliTest, HelpAndVerifyFlagsParse) {
  EXPECT_TRUE(parse({"--help"}).help);
  EXPECT_TRUE(parse({"--verify"}).verify);
}

TEST(ServerCliTest, MalformedValuesAreRejectedWithAReason) {
  for (const std::vector<const char*>& args :
       std::vector<std::vector<const char*>>{
           {"--listen"},                     // missing value
           {"--listen", "65536"},            // port out of range
           {"--listen", "-1"},               // negative
           {"--listen", "4x"},               // trailing junk
           {"--max-sessions", "two"},        // non-numeric
           {"--workers", "-3"},              // negative wraps in stoul
           {"--cache", "10bb"},              // trailing junk
           {"--tile-parallelism", "0"},      // zero width is a caller bug
           {"--tile-parallelism", "-4"},     // negative width
           {"--batch", "0"},                 // no images is not a run
           {"--batch", "-2"},                // negative
           {"--batch", "+4"},                // stoul would accept the '+'
           {"--batch", "4x"},                // trailing junk
           {"--batch"},                      // missing value
           {"--dilation", "0"},              // a window needs a pitch
           {"--dilation", "-2"},             // negative
           {"--dilation", "2x"},             // trailing junk
           {"--dilation"},                   // missing value
           {"--depth-multiplier", "0"},      // zero drops all channels
           {"--depth-multiplier", "+3"},     // stoul would accept the '+'
           {"--depth-multiplier"},           // missing value
           {"--cache-file"},                 // missing value
           {"--max-queue", "abc"},           // non-numeric
           {"--max-queue", "-1"},            // negative wraps in stoul
           {"--max-queue"},                  // missing value
           {"--busy-retry-ms", "0"},         // a 0 ms hint is a busy loop
           {"--busy-retry-ms", "-5"},        // negative
           {"--busy-retry-ms", "5x"},        // trailing junk
           {"--busy-retry-ms"},              // missing value
           {"--wat"},                        // unknown flag
           {"--depth_multiplier", "2"},      // the key's spelling, no flag
           {"--seed", "3"},                  // a protocol key, no flag
           {"--clock-ghz", "0.5"},           // likewise
       }) {
    SCOPED_TRACE(args.front());
    const ServerConfig config = parse(args);
    EXPECT_FALSE(config.error.empty());
  }
}

TEST(ServerCliTest, ContradictoryModesAreRejected) {
  // --verify compares against an in-process serial reference; in socket
  // mode that is the client's job (simulation_client --verify).
  EXPECT_FALSE(parse({"--verify", "--listen", "0"}).error.empty());
  // --max-sessions is meaningless without a socket to accept on.
  EXPECT_FALSE(parse({"--max-sessions", "1"}).error.empty());
  // ... but fine together with --listen.
  EXPECT_TRUE(parse({"--listen", "0", "--max-sessions", "1"}).error.empty());
  // Persistence with memoization disabled would save an empty cache over
  // the file at shutdown, destroying every persisted design point.
  EXPECT_FALSE(
      parse({"--cache", "0", "--cache-file", "/tmp/c.bin"}).error.empty());
  EXPECT_TRUE(
      parse({"--cache", "8", "--cache-file", "/tmp/c.bin"}).error.empty());
  // The retry hint is what busy replies advertise; without a bounded
  // queue no reply will ever carry it, so stating it is a config error.
  EXPECT_FALSE(parse({"--busy-retry-ms", "5"}).error.empty());
  EXPECT_TRUE(
      parse({"--max-queue", "2", "--busy-retry-ms", "5"}).error.empty());
}

// --- the client's command line (service/client_cli.hpp) --------------------

TEST(ClientCliTest, HelpTextMentionsEveryDocumentedFlag) {
  const std::string usage = client_usage();
  for (const char* flag :
       {"--help", "--connect", "--verify", "--expect-all-hits", "--backend",
        "--batch", "--dilation", "--depth-multiplier", "--pipeline",
        "--ordered"}) {
    SCOPED_TRACE(flag);
    EXPECT_NE(usage.find(flag), std::string::npos)
        << "flag missing from simulation_client --help output";
  }
  EXPECT_NE(usage.find("HOST:PORT"), std::string::npos);
}

TEST(ClientCliTest, EveryFlagParses) {
  const ClientConfig config =
      parse_client({"--connect", "127.0.0.1:47163", "--verify",
                    "--expect-all-hits", "--backend", "serialized",
                    "--batch", "4", "--dilation", "2",
                    "--depth-multiplier", "3", "--pipeline", "32",
                    "--ordered"});
  ASSERT_TRUE(config.error.empty()) << config.error;
  EXPECT_TRUE(config.connect_given);
  EXPECT_EQ(config.host, "127.0.0.1");
  EXPECT_EQ(config.port, 47163);
  EXPECT_TRUE(config.verify);
  EXPECT_TRUE(config.expect_all_hits);
  EXPECT_EQ(config.defaults.backend, "serialized");
  EXPECT_EQ(config.defaults.batch, 4);
  EXPECT_EQ(config.defaults.dilation, 2);
  EXPECT_EQ(config.defaults.depth_multiplier, 3);
  EXPECT_EQ(config.pipeline, 32u);
  EXPECT_TRUE(config.ordered);
}

TEST(ClientCliTest, DesignFlagsDefaultToTheProtocolDefaults) {
  // Without flags the --verify reference starts from the same point the
  // line protocol does, so it cannot drift from a server started without
  // the flags.
  const ClientConfig config = parse_client({"--connect", "h:1"});
  ASSERT_TRUE(config.error.empty()) << config.error;
  EXPECT_EQ(config.defaults, core::DesignPoint{});
  // pipeline 0 selects the legacy send-everything-then-read mode.
  EXPECT_EQ(config.pipeline, 0u);
  EXPECT_FALSE(config.ordered);
}

TEST(ClientCliTest, HelpNeedsNoConnect) {
  const ClientConfig config = parse_client({"--help"});
  EXPECT_TRUE(config.error.empty()) << config.error;
  EXPECT_TRUE(config.help);
}

TEST(ClientCliTest, ConnectIsRequiredAndValidated) {
  EXPECT_FALSE(parse_client({}).error.empty());
  EXPECT_FALSE(parse_client({"--verify"}).error.empty());
  for (const char* bad :
       {"localhost", ":80", "host:", "host:abc", "host:65536", "host:-1",
        "host:80x", "host:+80", "host: 80"}) {
    SCOPED_TRACE(std::string("target '") + bad + "'");
    EXPECT_FALSE(parse_client({"--connect", bad}).error.empty());
  }
  const ClientConfig ok = parse_client({"--connect", "localhost:0"});
  EXPECT_TRUE(ok.error.empty()) << ok.error;
  EXPECT_EQ(ok.host, "localhost");
  EXPECT_EQ(ok.port, 0);
}

TEST(ClientCliTest, ContradictionsAndUnknownsAreRejected) {
  // --expect-all-hits asserts a property of the --verify comparison.
  EXPECT_FALSE(parse_client({"--connect", "h:1", "--expect-all-hits"})
                   .error.empty());
  EXPECT_FALSE(parse_client({"--connect", "h:1", "--wat"}).error.empty());
  const ClientConfig bad_backend =
      parse_client({"--connect", "h:1", "--backend", "warp-drive"});
  ASSERT_FALSE(bad_backend.error.empty());
  EXPECT_NE(bad_backend.error.find("warp-drive"), std::string::npos);
  EXPECT_FALSE(
      parse_client({"--connect", "h:1", "--backend"}).error.empty());
  for (const char* bad : {"0", "-2", "+4", "4x", "abc"}) {
    SCOPED_TRACE(std::string("batch '") + bad + "'");
    EXPECT_FALSE(
        parse_client({"--connect", "h:1", "--batch", bad}).error.empty());
  }
  EXPECT_FALSE(parse_client({"--connect", "h:1", "--batch"}).error.empty());
  for (const char* flag : {"--dilation", "--depth-multiplier"}) {
    for (const char* bad : {"0", "-2", "+4", "4x", "abc"}) {
      SCOPED_TRACE(std::string(flag) + " '" + bad + "'");
      EXPECT_FALSE(
          parse_client({"--connect", "h:1", flag, bad}).error.empty());
    }
    EXPECT_FALSE(parse_client({"--connect", "h:1", flag}).error.empty());
  }
}

TEST(ClientCliTest, PipelineWindowIsBoundedByTheFrameLimit) {
  // The window rides inside batch frames, so it can never exceed the
  // protocol's own frame limit; the error names the legal range.
  for (const char* bad : {"0", "-1", "+8", "8x", "abc", "4097", ""}) {
    SCOPED_TRACE(std::string("window '") + bad + "'");
    const ClientConfig config =
        parse_client({"--connect", "h:1", "--pipeline", bad});
    EXPECT_FALSE(config.error.empty());
    EXPECT_NE(config.error.find("4096"), std::string::npos) << config.error;
  }
  EXPECT_FALSE(parse_client({"--connect", "h:1", "--pipeline"}).error.empty());
  const ClientConfig top =
      parse_client({"--connect", "h:1", "--pipeline", "4096"});
  EXPECT_TRUE(top.error.empty()) << top.error;
  EXPECT_EQ(top.pipeline, 4096u);
  // --ordered shapes how the pipelined sender negotiates; the one-shot
  // sender is ordered by construction, so alone it is a silent no-op.
  EXPECT_FALSE(parse_client({"--connect", "h:1", "--ordered"}).error.empty());
  EXPECT_TRUE(parse_client({"--connect", "h:1", "--pipeline", "8",
                            "--ordered"})
                  .error.empty());
}

}  // namespace
}  // namespace edea::service
