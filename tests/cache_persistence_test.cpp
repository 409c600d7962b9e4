// cache_persistence_test - the restart-surviving result cache of the
// simulation service: save -> load -> hit round trips (including error
// outcomes), bit-identical protocol lines from persisted summaries,
// merge-on-resave, and loud rejection of corrupted, truncated, or
// version-skewed cache files.
#include "service/simulation_service.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/sweep_runner.hpp"
#include "nn/model_zoo.hpp"
#include "service/protocol.hpp"
#include "util/binary.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/random.hpp"

namespace edea::service {
namespace {

/// Small two-layer DSC network (fast enough to simulate many times).
std::vector<nn::DscLayerSpec> tiny_specs() {
  nn::DscLayerSpec a;
  a.index = 0;
  a.in_rows = 8;
  a.in_cols = 8;
  a.in_channels = 16;
  a.out_channels = 32;
  nn::DscLayerSpec b;
  b.index = 1;
  b.in_rows = 8;
  b.in_cols = 8;
  b.in_channels = 32;
  b.stride = 2;
  b.out_channels = 32;
  return {a, b};
}

nn::Int8Tensor tiny_input(std::uint64_t seed) {
  Rng rng(seed);
  nn::Int8Tensor input(nn::Shape{8, 8, 16});
  for (auto& v : input.storage()) {
    v = static_cast<std::int8_t>(rng.uniform_int(-64, 64));
  }
  return input;
}

struct Fixture {
  std::vector<nn::QuantDscLayer> layers =
      nn::make_random_quant_network(tiny_specs(), 77);
  nn::Int8Tensor input = tiny_input(78);

  [[nodiscard]] core::SweepJob job(const std::string& name, int td = 8,
                                   int tk = 16) const {
    core::SweepJob j;
    j.name = name;
    j.config.td = td;
    j.config.tk = tk;
    j.layers = &layers;
    j.input = &input;
    return j;
  }

  [[nodiscard]] core::SweepJob infeasible(const std::string& name) const {
    core::SweepJob j = job(name);
    j.config.kernel = 5;  // cannot map 3x3 layers -> error outcome
    return j;
  }
};

std::string temp_cache_path(const std::string& name) {
  return testing::TempDir() + "edea_" + name + ".cache";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out << bytes;
}

TEST(CachePersistenceTest, SaveLoadRoundTripServesHitsBitIdentically) {
  const std::string path = temp_cache_path("roundtrip");
  Fixture fx;

  // First life: simulate three points (one infeasible), persist.
  core::SweepOutcome first_ok, first_err;
  {
    SimulationService svc;
    first_ok = svc.submit(fx.job("a", 8, 16)).get();
    ASSERT_TRUE(first_ok.ok) << first_ok.error;
    ASSERT_TRUE(svc.submit(fx.job("b", 16, 32)).get().ok);
    first_err = svc.submit(fx.infeasible("bad")).get();
    ASSERT_FALSE(first_err.ok);
    EXPECT_EQ(svc.save_cache(path), 3u);
  }

  // Second life: every point is a hit, no simulation, summary-only, and
  // the protocol line matches the first life's byte for byte.
  SimulationService svc;
  EXPECT_EQ(svc.load_cache(path), 3u);
  EXPECT_EQ(svc.cache_stats().entries, 3u);

  core::SweepOutcome replay = svc.submit(fx.job("a", 8, 16)).get();
  EXPECT_TRUE(replay.cache_hit);
  EXPECT_TRUE(replay.summary_only);
  EXPECT_TRUE(replay.ok);
  EXPECT_EQ(replay.summary, first_ok.summary);
  core::SweepOutcome first_as_hit = first_ok;
  first_as_hit.cache_hit = true;
  EXPECT_EQ(format_outcome_line(replay), format_outcome_line(first_as_hit));

  core::SweepOutcome replay_err = svc.submit(fx.infeasible("bad")).get();
  EXPECT_TRUE(replay_err.cache_hit);
  EXPECT_FALSE(replay_err.ok);
  EXPECT_EQ(replay_err.error, first_err.error);

  const CacheStats stats = svc.cache_stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 0u);
  std::remove(path.c_str());
}

TEST(CachePersistenceTest, EntriesAreKeyedPerBackendAcrossRestarts) {
  const std::string path = temp_cache_path("backends");
  Fixture fx;

  // Same workload and config on both dataflows: two distinct keys, two
  // distinct summaries (cycles diverge; outputs hash identically).
  core::SweepOutcome edea_first, serial_first;
  {
    SimulationService svc;
    core::SweepJob fast = fx.job("fast");
    fast.backend = "edea";
    core::SweepJob slow = fx.job("slow");
    slow.backend = "serialized";
    edea_first = svc.submit(fast).get();
    serial_first = svc.submit(slow).get();
    ASSERT_TRUE(edea_first.ok) << edea_first.error;
    ASSERT_TRUE(serial_first.ok) << serial_first.error;
    EXPECT_EQ(svc.cache_stats().misses, 2u);  // no aliasing between keys
    EXPECT_EQ(svc.save_cache(path), 2u);
  }
  EXPECT_EQ(edea_first.summary.output_hash, serial_first.summary.output_hash);
  EXPECT_NE(edea_first.summary.total_cycles, serial_first.summary.total_cycles);

  // Restart: each backend's request hits its own persisted entry and
  // reproduces that backend's summary, not the other's.
  SimulationService svc;
  EXPECT_EQ(svc.load_cache(path), 2u);
  core::SweepJob fast = fx.job("fast");
  fast.backend = "edea";
  core::SweepJob slow = fx.job("slow");
  slow.backend = "serialized";
  const core::SweepOutcome edea_replay = svc.submit(fast).get();
  const core::SweepOutcome serial_replay = svc.submit(slow).get();
  EXPECT_TRUE(edea_replay.cache_hit);
  EXPECT_TRUE(serial_replay.cache_hit);
  EXPECT_TRUE(edea_replay.summary_only);
  EXPECT_EQ(edea_replay.backend, "edea");
  EXPECT_EQ(serial_replay.backend, "serialized");
  EXPECT_EQ(edea_replay.summary, edea_first.summary);
  EXPECT_EQ(serial_replay.summary, serial_first.summary);
  EXPECT_EQ(svc.cache_stats().misses, 0u);
  std::remove(path.c_str());
}

TEST(CachePersistenceTest, ResaveMergesPersistedAndLiveEntries) {
  const std::string path = temp_cache_path("merge");
  Fixture fx;
  {
    SimulationService svc;
    ASSERT_TRUE(svc.submit(fx.job("a", 8, 16)).get().ok);
    EXPECT_EQ(svc.save_cache(path), 1u);
  }
  {
    // Second life serves the old point from persistence and simulates a
    // new one; the resave must carry both.
    SimulationService svc;
    EXPECT_EQ(svc.load_cache(path), 1u);
    EXPECT_TRUE(svc.submit(fx.job("a", 8, 16)).get().cache_hit);
    ASSERT_TRUE(svc.submit(fx.job("b", 16, 32)).get().ok);
    EXPECT_EQ(svc.save_cache(path), 2u);
  }
  SimulationService svc;
  EXPECT_EQ(svc.load_cache(path), 2u);
  EXPECT_TRUE(svc.submit(fx.job("a", 8, 16)).get().cache_hit);
  EXPECT_TRUE(svc.submit(fx.job("b", 16, 32)).get().cache_hit);
  EXPECT_EQ(svc.cache_stats().misses, 0u);
  std::remove(path.c_str());
}

TEST(CachePersistenceTest, SavedFileBytesAreDeterministic) {
  const std::string path_a = temp_cache_path("det_a");
  const std::string path_b = temp_cache_path("det_b");
  Fixture fx;
  for (const std::string& path : {path_a, path_b}) {
    SimulationService svc;
    // Insertion orders differ; the file must not.
    if (path == path_a) {
      ASSERT_TRUE(svc.submit(fx.job("x", 8, 16)).get().ok);
      ASSERT_TRUE(svc.submit(fx.job("y", 16, 32)).get().ok);
    } else {
      ASSERT_TRUE(svc.submit(fx.job("y", 16, 32)).get().ok);
      ASSERT_TRUE(svc.submit(fx.job("x", 8, 16)).get().ok);
    }
    EXPECT_EQ(svc.save_cache(path), 2u);
  }
  EXPECT_EQ(read_file(path_a), read_file(path_b));
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

/// FNV-1a digest of a whole file, for pinning file bytes across commits.
std::uint64_t file_digest(const std::string& path) {
  const std::string bytes = read_file(path);
  return util::Fnv1a64().bytes(bytes.data(), bytes.size()).digest();
}

TEST(CachePersistenceTest, FileBytesMatchPinnedDigest) {
  // SavedFileBytesAreDeterministic proves one build writes one file; this
  // pins the bytes themselves, so a refactor of the entry encoding cannot
  // change the on-disk format without a version bump. The entry set
  // exercises every key field: both backends, batch, dilation, depth
  // multiplier, a non-default clock, and an error entry.
  const std::string path = temp_cache_path("pinned");
  Fixture fx;
  std::vector<core::SweepJob> jobs;
  jobs.push_back(fx.job("plain"));
  jobs.push_back(fx.job("serialized"));
  jobs.back().backend = "serialized";
  jobs.push_back(fx.job("batched"));
  jobs.back().batch = 2;
  jobs.push_back(fx.job("dilated"));
  jobs.back().dilation = 2;
  jobs.push_back(fx.job("multiplied"));
  jobs.back().depth_multiplier = 2;
  jobs.push_back(fx.job("slow-clock"));
  jobs.back().config.clock_ghz = 0.5;
  jobs.push_back(fx.infeasible("infeasible"));
  {
    SimulationService svc;
    const std::vector<core::SweepOutcome> outcomes = svc.serve(jobs);
    EXPECT_FALSE(outcomes.back().ok);
    EXPECT_EQ(svc.save_cache(path), jobs.size());
  }
  EXPECT_EQ(read_file(path).size(), std::size_t{1019});
  EXPECT_EQ(file_digest(path), std::uint64_t{0xd65f28148beae9c0})
      << std::hex << "file digest 0x" << file_digest(path);
  std::remove(path.c_str());
}

/// A v4 cache file with one entry naming these key fields and a valid
/// digest - well-formed framing around whatever the entry names.
std::string v4_file(const std::string& backend, std::int32_t batch,
                    std::int32_t dilation, std::int32_t depth_multiplier) {
  util::ByteWriter w;
  w.pod(std::uint64_t{0x0053414341454445ull});  // "EDEACAS\0" magic
  w.pod(std::uint32_t{4});                      // version
  w.pod(std::uint64_t{1});                      // entry count
  w.pod(std::uint64_t{0x1234});                 // fingerprint
  core::EdeaConfig::paper().encode(w);
  w.str(backend);
  w.pod(batch);
  w.pod(dilation);
  w.pod(depth_multiplier);
  w.pod(std::uint8_t{1});  // ok
  w.str("");               // error text
  core::RunSummary{}.encode(w);
  const std::uint64_t digest =
      util::Fnv1a64().bytes(w.buffer().data(), w.buffer().size()).digest();
  std::string bytes(w.buffer().data(), w.buffer().size());
  bytes.append(reinterpret_cast<const char*>(&digest), sizeof(digest));
  return bytes;
}

TEST(CachePersistenceTest, ChecksumValidEntriesWithBadDimensionsAreRejected) {
  // The digest only proves the bytes are the ones written; it says nothing
  // about whether the entry names a point the service could ever serve.
  const std::string path = temp_cache_path("bad_dimensions");
  Fixture fx;
  SimulationService svc;
  ASSERT_TRUE(svc.submit(fx.job("live")).get().ok);
  const struct {
    const char* what;
    std::string bytes;
  } cases[] = {
      {"unknown backend", v4_file("warp-drive", 1, 1, 1)},
      {"batch 0", v4_file("edea", 0, 1, 1)},
      {"dilation 0", v4_file("edea", 1, 0, 1)},
      {"depth_multiplier 0", v4_file("edea", 1, 1, 0)},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    write_file(path, c.bytes);
    try {
      (void)svc.load_cache(path);
      ADD_FAILURE() << "an entry with " << c.what << " must be rejected";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(svc.cache_stats().entries, 1u);  // the live entry only
  }
  // The well-formed control loads.
  write_file(path, v4_file("edea", 1, 1, 1));
  EXPECT_EQ(svc.load_cache(path), 1u);
  std::remove(path.c_str());
}

TEST(CachePersistenceTest, EntryCountBeyondPayloadIsRejected) {
  // A header may claim any count: FNV is not a MAC, so a crafted file
  // carries a valid digest. The count must be checked against what the
  // payload can hold before anything is reserved for it.
  const std::string path = temp_cache_path("huge_count");
  util::ByteWriter w;
  w.pod(std::uint64_t{0x0053414341454445ull});  // "EDEACAS\0" magic
  w.pod(std::uint32_t{4});                      // version
  w.pod(std::uint64_t{1} << 40);                // entry count, no entries
  const std::uint64_t digest =
      util::Fnv1a64().bytes(w.buffer().data(), w.buffer().size()).digest();
  std::string bytes(w.buffer().data(), w.buffer().size());
  bytes.append(reinterpret_cast<const char*>(&digest), sizeof(digest));
  ASSERT_EQ(bytes.size(), 28u);
  write_file(path, bytes);

  Fixture fx;
  SimulationService svc;
  ASSERT_TRUE(svc.submit(fx.job("live")).get().ok);
  try {
    (void)svc.load_cache(path);
    FAIL() << "a count the payload cannot hold must be rejected";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(svc.cache_stats().entries, 1u);
  std::remove(path.c_str());
}

TEST(CachePersistenceTest, MissingFileIsAFreshStartNotAnError) {
  SimulationService svc;
  EXPECT_EQ(svc.load_cache(temp_cache_path("does_not_exist")), 0u);
  EXPECT_EQ(svc.cache_stats().entries, 0u);
}

TEST(CachePersistenceTest, CorruptedFileIsRejectedAndCacheUnchanged) {
  const std::string path = temp_cache_path("corrupt");
  Fixture fx;
  {
    SimulationService svc;
    ASSERT_TRUE(svc.submit(fx.job("a")).get().ok);
    EXPECT_EQ(svc.save_cache(path), 1u);
  }
  std::string bytes = read_file(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x5A);
  write_file(path, bytes);

  SimulationService svc;
  EXPECT_THROW((void)svc.load_cache(path), PreconditionError);
  EXPECT_EQ(svc.cache_stats().entries, 0u);
  // The service stays fully functional: the point simulates as a miss.
  const core::SweepOutcome out = svc.submit(fx.job("a")).get();
  EXPECT_TRUE(out.ok);
  EXPECT_FALSE(out.cache_hit);
  std::remove(path.c_str());
}

TEST(CachePersistenceTest, TruncatedFileIsRejected) {
  const std::string path = temp_cache_path("truncated");
  Fixture fx;
  {
    SimulationService svc;
    ASSERT_TRUE(svc.submit(fx.job("a")).get().ok);
    EXPECT_EQ(svc.save_cache(path), 1u);
  }
  const std::string bytes = read_file(path);
  // Every proper prefix must be rejected - the checksum trails the file,
  // so truncation at any point loses or garbles it.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, bytes.size() / 2,
        bytes.size() - 1}) {
    SCOPED_TRACE("keep=" + std::to_string(keep));
    write_file(path, bytes.substr(0, keep));
    SimulationService svc;
    EXPECT_THROW((void)svc.load_cache(path), PreconditionError);
    EXPECT_EQ(svc.cache_stats().entries, 0u);
  }
  std::remove(path.c_str());
}

TEST(CachePersistenceTest, VersionSkewAndTrailingGarbageAreRejected) {
  const std::string path = temp_cache_path("skew");
  Fixture fx;
  {
    SimulationService svc;
    ASSERT_TRUE(svc.submit(fx.job("a")).get().ok);
    EXPECT_EQ(svc.save_cache(path), 1u);
  }
  const std::string bytes = read_file(path);

  // Flipping the version (bytes 8..11, after the 8-byte magic) while
  // leaving everything else intact fails the checksum; a file that also
  // "fixed" its checksum would still fail the version gate - either way
  // the load must throw.
  std::string skewed = bytes;
  skewed[8] = static_cast<char>(skewed[8] + 1);
  write_file(path, skewed);
  {
    SimulationService svc;
    EXPECT_THROW((void)svc.load_cache(path), PreconditionError);
  }

  // Appending bytes invalidates the trailing checksum too.
  write_file(path, bytes + "garbage");
  {
    SimulationService svc;
    EXPECT_THROW((void)svc.load_cache(path), PreconditionError);
  }
  std::remove(path.c_str());
}

TEST(CachePersistenceTest, BatchSizesAreDistinctKeysAcrossRestarts) {
  const std::string path = temp_cache_path("batches");
  Fixture fx;

  // Same workload, config, and backend at batch 1 and batch 4: two keys,
  // two summaries (the batched arena plan has a larger peak).
  core::SweepOutcome single_first, batched_first;
  {
    SimulationService svc;
    core::SweepJob single = fx.job("single");
    core::SweepJob batched = fx.job("batched");
    batched.batch = 4;
    single_first = svc.submit(single).get();
    batched_first = svc.submit(batched).get();
    ASSERT_TRUE(single_first.ok) << single_first.error;
    ASSERT_TRUE(batched_first.ok) << batched_first.error;
    EXPECT_EQ(svc.cache_stats().misses, 2u);  // no aliasing between keys
    EXPECT_EQ(svc.save_cache(path), 2u);
  }
  EXPECT_EQ(single_first.summary.output_hash,
            batched_first.summary.output_hash);
  EXPECT_GT(batched_first.summary.peak_arena_bytes,
            single_first.summary.peak_arena_bytes);

  SimulationService svc;
  EXPECT_EQ(svc.load_cache(path), 2u);
  core::SweepJob single = fx.job("single");
  core::SweepJob batched = fx.job("batched");
  batched.batch = 4;
  const core::SweepOutcome single_replay = svc.submit(single).get();
  const core::SweepOutcome batched_replay = svc.submit(batched).get();
  EXPECT_TRUE(single_replay.cache_hit);
  EXPECT_TRUE(batched_replay.cache_hit);
  EXPECT_EQ(single_replay.batch, 1);
  EXPECT_EQ(batched_replay.batch, 4);
  EXPECT_EQ(single_replay.summary, single_first.summary);
  EXPECT_EQ(batched_replay.summary, batched_first.summary);
  EXPECT_EQ(svc.cache_stats().misses, 0u);
  std::remove(path.c_str());
}

TEST(CachePersistenceTest, TransformKnobsAreDistinctKeysAcrossRestarts) {
  const std::string path = temp_cache_path("transforms");
  Fixture fx;

  // Same workload, config, backend, and batch at three transform points:
  // (1,1), (2,1), (1,2) - three keys, no aliasing, each echoing its own
  // knobs after the file round trip (the format-v4 fields).
  core::SweepOutcome plain_first, dilated_first, multiplied_first;
  {
    SimulationService svc;
    core::SweepJob plain = fx.job("plain");
    core::SweepJob dilated = fx.job("dilated");
    dilated.dilation = 2;
    core::SweepJob multiplied = fx.job("multiplied");
    multiplied.depth_multiplier = 2;
    plain_first = svc.submit(plain).get();
    dilated_first = svc.submit(dilated).get();
    multiplied_first = svc.submit(multiplied).get();
    ASSERT_TRUE(plain_first.ok) << plain_first.error;
    EXPECT_EQ(svc.cache_stats().misses, 3u);  // no aliasing between keys
    EXPECT_EQ(svc.save_cache(path), 3u);
  }

  SimulationService svc;
  EXPECT_EQ(svc.load_cache(path), 3u);
  core::SweepJob plain = fx.job("plain");
  core::SweepJob dilated = fx.job("dilated");
  dilated.dilation = 2;
  core::SweepJob multiplied = fx.job("multiplied");
  multiplied.depth_multiplier = 2;
  const core::SweepOutcome plain_replay = svc.submit(plain).get();
  const core::SweepOutcome dilated_replay = svc.submit(dilated).get();
  const core::SweepOutcome multiplied_replay = svc.submit(multiplied).get();
  EXPECT_TRUE(plain_replay.cache_hit);
  EXPECT_TRUE(dilated_replay.cache_hit);
  EXPECT_TRUE(multiplied_replay.cache_hit);
  EXPECT_EQ(plain_replay.dilation, 1);
  EXPECT_EQ(dilated_replay.dilation, 2);
  EXPECT_EQ(dilated_replay.depth_multiplier, 1);
  EXPECT_EQ(multiplied_replay.depth_multiplier, 2);
  EXPECT_EQ(plain_replay.summary, plain_first.summary);
  EXPECT_EQ(dilated_replay.summary, dilated_first.summary);
  EXPECT_EQ(multiplied_replay.summary, multiplied_first.summary);
  EXPECT_EQ(svc.cache_stats().misses, 0u);

  // The persisted-line contract holds for transformed entries too: the
  // replayed (summary-only) outcome formats byte-identically to the live
  // one served as a hit, dilation= echo included.
  core::SweepOutcome dilated_as_hit = dilated_first;
  dilated_as_hit.cache_hit = true;
  EXPECT_EQ(format_outcome_line(dilated_replay),
            format_outcome_line(dilated_as_hit));

  // Byte-determinism extends to the v4 fields: a second service reaching
  // the same entries in another order persists the identical file.
  const std::string path_b = temp_cache_path("transforms_b");
  {
    SimulationService reordered;
    ASSERT_TRUE(reordered.submit(multiplied).get().ok);
    ASSERT_TRUE(reordered.submit(dilated).get().ok);
    ASSERT_TRUE(reordered.submit(plain).get().ok);
    EXPECT_EQ(reordered.save_cache(path_b), 3u);
  }
  EXPECT_EQ(read_file(path), read_file(path_b));
  std::remove(path.c_str());
  std::remove(path_b.c_str());
}

TEST(CachePersistenceTest, VersionThreeFilesAreRejectedByTheVersionGate) {
  // A well-formed v3 file (correct magic, correct checksum, zero entries)
  // must trip the *version* check, not the checksum: v3 predates the
  // dilation / depth-multiplier key fields, so a v3 file cannot say which
  // workload transform its fingerprints were computed over - reject
  // loudly, never guess.
  const std::string path = temp_cache_path("v3");
  util::ByteWriter w;
  w.pod(std::uint64_t{0x0053414341454445ull});  // "EDEACAS\0" magic
  w.pod(std::uint32_t{3});                      // the superseded version
  w.pod(std::uint64_t{0});                      // entry count
  const std::uint64_t digest =
      util::Fnv1a64().bytes(w.buffer().data(), w.buffer().size()).digest();
  std::string bytes(w.buffer().data(), w.buffer().size());
  bytes.append(reinterpret_cast<const char*>(&digest), sizeof(digest));
  write_file(path, bytes);

  SimulationService svc;
  try {
    (void)svc.load_cache(path);
    FAIL() << "a v3 cache file must be rejected";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version 3"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(svc.cache_stats().entries, 0u);
  std::remove(path.c_str());
}

TEST(CachePersistenceTest, VersionTwoFilesAreRejectedByTheVersionGate) {
  // A well-formed v2 file (correct magic, correct checksum, zero entries)
  // must trip the *version* check, not the checksum: v2 predates
  // batch-keyed entries and the summary's peak_arena_bytes field, so its
  // entries can never decode correctly - reject loudly, never migrate.
  const std::string path = temp_cache_path("v2");
  util::ByteWriter w;
  w.pod(std::uint64_t{0x0053414341454445ull});  // "EDEACAS\0" magic
  w.pod(std::uint32_t{2});                      // the superseded version
  w.pod(std::uint64_t{0});                      // entry count
  const std::uint64_t digest =
      util::Fnv1a64().bytes(w.buffer().data(), w.buffer().size()).digest();
  std::string bytes(w.buffer().data(), w.buffer().size());
  bytes.append(reinterpret_cast<const char*>(&digest), sizeof(digest));
  write_file(path, bytes);

  SimulationService svc;
  try {
    (void)svc.load_cache(path);
    FAIL() << "a v2 cache file must be rejected";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version 2"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(svc.cache_stats().entries, 0u);
  std::remove(path.c_str());
}

TEST(CachePersistenceTest, ZeroCapacityServiceIgnoresPersistence) {
  const std::string path = temp_cache_path("nocache");
  Fixture fx;
  {
    SimulationService svc;
    ASSERT_TRUE(svc.submit(fx.job("a")).get().ok);
    EXPECT_EQ(svc.save_cache(path), 1u);
  }
  ServiceOptions options;
  options.cache_capacity = 0;  // memoization disabled disables persistence
  SimulationService svc(options);
  EXPECT_EQ(svc.load_cache(path), 0u);
  EXPECT_FALSE(svc.submit(fx.job("a")).get().cache_hit);
  std::remove(path.c_str());
}

TEST(CachePersistenceTest, UnwritablePathThrowsResourceError) {
  SimulationService svc;
  EXPECT_THROW((void)svc.save_cache("/nonexistent-dir/edea.cache"),
               ResourceError);
}

}  // namespace
}  // namespace edea::service
