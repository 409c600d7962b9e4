// backoff_test - the shared jittered exponential backoff schedule
// (util/backoff.hpp). Both retry loops in the tree (PipelineClient's busy
// retries and connect_socket) delegate here, so the properties pinned
// below - exponential growth to a cap, jitter bounds, and seed
// determinism - are the retry behavior of the whole service tier.
#include "util/backoff.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/check.hpp"
#include "util/random.hpp"

namespace edea {
namespace {

TEST(BackoffTest, NominalDelayDoublesPerAttemptUpToTheShiftCap) {
  // Pin the exponential shape with jitter disabled (min == max == 1).
  BackoffOptions options;
  options.jitter_min = 1.0;
  options.jitter_max = 1.0;
  Rng rng(1);
  std::vector<std::int64_t> delays;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    delays.push_back(jittered_backoff_ms(attempt, 100, rng, options));
  }
  EXPECT_EQ(delays, (std::vector<std::int64_t>{100, 200, 400, 800, 1600,
                                               3200, 3200, 3200}))
      << "delays double per attempt, then hold at base * 2^max_shift";
}

TEST(BackoffTest, JitterStaysInsideTheConfiguredRange) {
  // Default policy: uniform [0.5, 1.5) around the nominal delay. 1000
  // draws per attempt level must all stay inside the closed-open bound.
  Rng rng(42);
  for (int attempt = 1; attempt <= 6; ++attempt) {
    const std::int64_t nominal = std::int64_t{100} << (attempt - 1);
    for (int draw = 0; draw < 1000; ++draw) {
      const std::int64_t delay = jittered_backoff_ms(attempt, 100, rng);
      EXPECT_GE(delay, nominal / 2) << "attempt " << attempt;
      EXPECT_LT(delay, nominal + nominal / 2) << "attempt " << attempt;
    }
  }
}

TEST(BackoffTest, DelayIsAtLeastOneMillisecondEvenForZeroBase) {
  // A zero base (a worker's busy line may suggest retry_ms=0) must not
  // produce a zero-delay spin loop.
  Rng rng(7);
  for (int attempt = 1; attempt <= 4; ++attempt) {
    EXPECT_GE(jittered_backoff_ms(attempt, 0, rng), 1);
  }
}

TEST(BackoffTest, SameSeedReplaysTheSameSchedule) {
  // Determinism is what makes busy-retry tests reproducible: the whole
  // delay sequence is a pure function of the seed.
  Rng rng_a(0xfeedull), rng_b(0xfeedull), rng_c(0xbeefull);
  bool any_difference = false;
  for (int attempt = 1; attempt <= 32; ++attempt) {
    const std::int64_t a = jittered_backoff_ms(attempt, 25, rng_a);
    const std::int64_t b = jittered_backoff_ms(attempt, 25, rng_b);
    const std::int64_t c = jittered_backoff_ms(attempt, 25, rng_c);
    EXPECT_EQ(a, b) << "attempt " << attempt;
    any_difference = any_difference || (a != c);
  }
  EXPECT_TRUE(any_difference)
      << "a different seed must yield a different jitter schedule";
}

TEST(BackoffTest, EqualJitterBoundsStillAdvanceTheRng) {
  // Disabling jitter must not desynchronize a shared Rng: both schedules
  // consume exactly one variate per call, so a consumer that toggles
  // jitter keeps every other draw aligned.
  BackoffOptions fixed;
  fixed.jitter_min = 1.0;
  fixed.jitter_max = 1.0;
  Rng rng_fixed(3), rng_default(3);
  (void)jittered_backoff_ms(1, 100, rng_fixed, fixed);
  (void)jittered_backoff_ms(1, 100, rng_default);
  EXPECT_EQ(rng_fixed(), rng_default())
      << "both variants must draw exactly one jitter variate";
}

TEST(BackoffTest, RejectsMalformedPolicies) {
  Rng rng(1);
  EXPECT_THROW((void)jittered_backoff_ms(0, 100, rng), PreconditionError);
  EXPECT_THROW((void)jittered_backoff_ms(1, -1, rng), PreconditionError);
  BackoffOptions inverted;
  inverted.jitter_min = 2.0;
  inverted.jitter_max = 1.0;
  EXPECT_THROW((void)jittered_backoff_ms(1, 100, rng, inverted),
               PreconditionError);
  BackoffOptions shift;
  shift.max_shift = 63;
  EXPECT_THROW((void)jittered_backoff_ms(1, 100, rng, shift),
               PreconditionError);
}

}  // namespace
}  // namespace edea
