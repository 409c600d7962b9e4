// catalog_test - WorkloadCatalog concurrency and its byte bound.
//
// Synthesis runs outside the catalog mutex, once per key: requests for
// the same key share one synthesis (and one object), requests for other
// keys never wait on it, and a failing synthesis reaches every waiter
// without leaving an entry. Beyond kByteBudget the catalog evicts
// unpinned workloads least recently used first; pins (acquire) and
// permanent references (resolve) survive, and an evicted key
// re-materializes byte-identically. Blocking is driven through the
// catalog's synthesis hook and latches - no sleeps.
#include "service/session.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/sweep_runner.hpp"
#include "service/simulation_service.hpp"
#include "service/transport.hpp"
#include "util/check.hpp"

namespace edea::service {
namespace {

using Workload = WorkloadCatalog::Workload;

/// The MobileNet-scale network the eviction tests flood the catalog with.
const char* kBig = "mobilenet-cifar";

/// Resident bytes of one workload of `network` (the same for every seed:
/// sizes follow the geometry).
std::size_t bytes_per_workload(const char* network) {
  WorkloadCatalog probe;
  (void)probe.acquire(network, 1);
  return probe.resident_bytes();
}

/// Acquires distinct `network` seeds from `first_seed` on, dropping each
/// pin at once, until twice the budget has been materialized - the
/// catalog must have evicted. Returns the seed after the last.
std::uint64_t flood(WorkloadCatalog& catalog, std::uint64_t first_seed,
                    const char* network = kBig) {
  const std::size_t count =
      2 * WorkloadCatalog::kByteBudget / bytes_per_workload(network) + 1;
  std::uint64_t seed = first_seed;
  for (std::size_t i = 0; i < count; ++i) {
    (void)catalog.acquire(network, seed++);
    EXPECT_LE(catalog.resident_bytes(), WorkloadCatalog::kByteBudget);
  }
  return seed;
}

TEST(WorkloadCatalogTest, EightThreadsResolvingOneKeyGetOneObject) {
  std::atomic<int> syntheses{0};
  WorkloadCatalog catalog(
      [&](const std::string&, std::uint64_t) { ++syntheses; });
  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::vector<const Workload*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      seen[static_cast<std::size_t>(t)] =
          &catalog.resolve("mobilenet-0.25x", 5);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const Workload* w : seen) EXPECT_EQ(w, seen.front());
  EXPECT_EQ(syntheses.load(), 1);
  EXPECT_EQ(catalog.size(), 1u);
}

TEST(WorkloadCatalogTest,
     ConcurrentResolvesOfAFailingKeyAllThrowAndLeaveNoEntry) {
  constexpr int kThreads = 8;
  // Every synthesis of the failing key is held until all threads have
  // been released, so the first one is in flight while the others look
  // the key up.
  std::latch start(kThreads + 1);
  WorkloadCatalog catalog(
      [&](const std::string&, std::uint64_t) { start.wait(); });
  std::atomic<int> thrown{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      start.count_down();
      try {
        (void)catalog.resolve("no-such-network", 1);
      } catch (const PreconditionError&) {
        ++thrown;
      }
    });
  }
  start.arrive_and_wait();
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(thrown.load(), kThreads);
  EXPECT_EQ(catalog.size(), 0u);
  EXPECT_EQ(catalog.resident_bytes(), 0u);
  // Nothing was cached: the key fails again instead of waiting forever.
  EXPECT_THROW((void)catalog.acquire("no-such-network", 1), PreconditionError);
  EXPECT_EQ(catalog.size(), 0u);
}

TEST(WorkloadCatalogTest, AnotherKeyResolvesWhileOneSynthesisIsHeld) {
  std::latch a_started(1);
  std::latch release_a(1);
  WorkloadCatalog catalog([&](const std::string& network, std::uint64_t) {
    if (network == kBig) {
      a_started.count_down();
      release_a.wait();
    }
  });
  auto a = std::async(std::launch::async,
                      [&] { return catalog.acquire(kBig, 1); });
  a_started.wait();

  // Key A is mid-synthesis and held; key B must not wait for it.
  auto b = std::async(std::launch::async,
                      [&] { return catalog.acquire("mobilenet-0.25x", 1); });
  const bool b_finished =
      b.wait_for(std::chrono::seconds(60)) == std::future_status::ready;
  // Only look while A is still held if B got through: a catalog that
  // locks across synthesis would block this lookup too.
  const std::size_t entries_while_held = b_finished ? catalog.size() : 0;
  release_a.count_down();
  ASSERT_TRUE(b_finished) << "resolving key B waited for key A's synthesis";
  EXPECT_EQ(entries_while_held, 2u);  // A in flight, B materialized

  const std::shared_ptr<const Workload> workload_a = a.get();
  WorkloadCatalog fresh;
  EXPECT_EQ(workload_a->fingerprint, fresh.acquire(kBig, 1)->fingerprint);
  EXPECT_EQ(b.get()->fingerprint,
            fresh.acquire("mobilenet-0.25x", 1)->fingerprint);
}

TEST(WorkloadCatalogTest, UnpinnedBytesStayWithinTheBudget) {
  WorkloadCatalog catalog;
  const std::uint64_t end = flood(catalog, 1);
  EXPECT_LE(catalog.resident_bytes(), WorkloadCatalog::kByteBudget);
  EXPECT_LT(catalog.size(), end - 1) << "nothing was evicted";
}

TEST(WorkloadCatalogTest, PinsAndResolvedReferencesSurviveEviction) {
  WorkloadCatalog catalog;
  const Workload& resolved = catalog.resolve(kBig, 1000);
  const std::uint64_t resolved_fingerprint = resolved.fingerprint;
  const std::shared_ptr<const Workload> pinned = catalog.acquire(kBig, 1001);
  const std::uint64_t pinned_fingerprint = pinned->fingerprint;

  (void)flood(catalog, 1);

  // Both are still the catalog's entries: looking them up again returns
  // the same objects, untouched.
  EXPECT_EQ(&catalog.resolve(kBig, 1000), &resolved);
  EXPECT_EQ(catalog.acquire(kBig, 1001), pinned);
  EXPECT_EQ(resolved.fingerprint, resolved_fingerprint);
  EXPECT_EQ(core::network_fingerprint(resolved.layers, resolved.input),
            resolved_fingerprint);
  EXPECT_EQ(core::network_fingerprint(pinned->layers, pinned->input),
            pinned_fingerprint);
}

TEST(WorkloadCatalogTest, KeyReacquiredAfterEvictionHasTheSameFingerprint) {
  WorkloadCatalog catalog;
  std::weak_ptr<const Workload> first;
  std::uint64_t fingerprint = 0;
  {
    const std::shared_ptr<const Workload> pin = catalog.acquire(kBig, 500, 2);
    first = pin;
    fingerprint = pin->fingerprint;
  }
  (void)flood(catalog, 1);
  EXPECT_TRUE(first.expired()) << "the oldest unpinned entry was not evicted";
  EXPECT_EQ(catalog.acquire(kBig, 500, 2)->fingerprint, fingerprint);
}

TEST(WorkloadCatalogTest,
     RecordingSessionBeyondTheBudgetReplaysBitIdentically) {
  // mobilenet-0.25x at td=16 simulates fastest; enough distinct seeds
  // that their workloads outgrow the budget while the session records.
  const std::size_t per_workload = bytes_per_workload("mobilenet-0.25x");
  const std::size_t requests = WorkloadCatalog::kByteBudget / per_workload + 8;

  std::ostringstream lines;
  for (std::size_t s = 1; s <= requests; ++s) {
    lines << "run mobilenet-0.25x seed=" << s << " td=16\n";
  }
  std::istringstream in(lines.str());
  std::ostringstream out;
  StdioStream stream(in, out);
  SimulationService service;
  WorkloadCatalog catalog;
  SessionOptions options;
  options.record_traffic = true;
  const SessionStats stats = Session(service, catalog, options).serve(stream);

  ASSERT_EQ(stats.jobs.size(), requests);
  ASSERT_EQ(stats.workloads.size(), requests);
  std::size_t recorded_bytes = 0;
  for (std::size_t i = 0; i < requests; ++i) {
    EXPECT_EQ(stats.jobs[i].layers, &stats.workloads[i]->layers);
    recorded_bytes += per_workload;
  }
  EXPECT_GT(recorded_bytes, WorkloadCatalog::kByteBudget);

  const std::vector<core::SweepOutcome> serial =
      core::SweepRunner(core::SweepRunner::Options{1}).run(stats.jobs);
  for (std::size_t i = 0; i < requests; ++i) {
    EXPECT_TRUE(stats.outcomes[i].ok) << stats.outcomes[i].error;
    EXPECT_EQ(stats.outcomes[i].ok, serial[i].ok);
    EXPECT_EQ(stats.outcomes[i].summary, serial[i].summary)
        << "request " << i << " (" << stats.outcomes[i].name << ")";
  }
}

}  // namespace
}  // namespace edea::service
