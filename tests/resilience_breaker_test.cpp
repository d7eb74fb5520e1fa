// CircuitBreaker: closed -> open -> half-open -> closed transitions,
// exponential backoff with cap, and deterministic seeded jitter.
#include "resilience/breaker.hpp"

#include <gtest/gtest.h>

namespace hpcmon::resilience {
namespace {

BreakerConfig no_jitter() {
  BreakerConfig c;
  c.failure_threshold = 3;
  c.cooldown = core::kMinute;
  c.backoff_factor = 2.0;
  c.max_cooldown = 4 * core::kMinute;
  c.jitter = 0.0;
  return c;
}

TEST(BreakerTest, OpensAfterConsecutiveFailures) {
  CircuitBreaker b(no_jitter());
  core::TimePoint t = 0;
  EXPECT_TRUE(b.allow(t));
  b.record_failure(t);
  b.record_failure(t);
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_EQ(b.consecutive_failures(), 2);
  // A success resets the streak: failures must be consecutive to open.
  b.record_success(t);
  EXPECT_EQ(b.consecutive_failures(), 0);
  b.record_failure(t);
  b.record_failure(t);
  b.record_failure(t);
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_EQ(obs::snapshot_of(b).counter("resilience.breaker_opens"), 1u);
  EXPECT_EQ(b.retry_at(), t + core::kMinute);
}

TEST(BreakerTest, DeniesWhileOpenThenAdmitsOneProbe) {
  CircuitBreaker b(no_jitter());
  for (int i = 0; i < 3; ++i) b.record_failure(0);
  ASSERT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_FALSE(b.allow(core::kSecond));
  EXPECT_FALSE(b.allow(30 * core::kSecond));
  EXPECT_EQ(obs::snapshot_of(b).counter("resilience.breaker_denied"), 2u);
  // Cooldown elapsed: exactly one probe admitted; further calls wait for
  // the probe's verdict.
  EXPECT_TRUE(b.allow(core::kMinute));
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);
  EXPECT_EQ(obs::snapshot_of(b).counter("resilience.breaker_probes"), 1u);
  EXPECT_FALSE(b.allow(core::kMinute));
  EXPECT_EQ(obs::snapshot_of(b).counter("resilience.breaker_denied"), 3u);
}

TEST(BreakerTest, ProbeSuccessCloses) {
  CircuitBreaker b(no_jitter());
  for (int i = 0; i < 3; ++i) b.record_failure(0);
  ASSERT_TRUE(b.allow(core::kMinute));
  b.record_success(core::kMinute);
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_EQ(obs::snapshot_of(b).counter("resilience.breaker_closes"), 1u);
  EXPECT_TRUE(b.allow(core::kMinute + core::kSecond));
}

TEST(BreakerTest, ProbeFailureReopensWithExponentialBackoff) {
  CircuitBreaker b(no_jitter());
  core::TimePoint t = 0;
  for (int i = 0; i < 3; ++i) b.record_failure(t);
  // 1st open: cooldown 1 min.
  EXPECT_EQ(b.retry_at(), t + core::kMinute);
  t = b.retry_at();
  ASSERT_TRUE(b.allow(t));
  b.record_failure(t);  // probe fails -> re-open, cooldown doubles
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_EQ(b.retry_at(), t + 2 * core::kMinute);
  t = b.retry_at();
  ASSERT_TRUE(b.allow(t));
  b.record_failure(t);
  EXPECT_EQ(b.retry_at(), t + 4 * core::kMinute);
  t = b.retry_at();
  ASSERT_TRUE(b.allow(t));
  b.record_failure(t);
  // Capped at max_cooldown (4 min), not 8.
  EXPECT_EQ(b.retry_at(), t + 4 * core::kMinute);
  EXPECT_EQ(obs::snapshot_of(b).counter("resilience.breaker_opens"), 4u);
  // A successful probe resets the backoff streak entirely.
  t = b.retry_at();
  ASSERT_TRUE(b.allow(t));
  b.record_success(t);
  for (int i = 0; i < 3; ++i) b.record_failure(t);
  EXPECT_EQ(b.retry_at(), t + core::kMinute);
}

TEST(BreakerTest, JitterIsDeterministicPerSeed) {
  BreakerConfig cfg = no_jitter();
  cfg.jitter = 0.5;
  CircuitBreaker a(cfg, 111);
  CircuitBreaker b(cfg, 111);
  CircuitBreaker c(cfg, 222);
  for (int i = 0; i < 3; ++i) {
    a.record_failure(0);
    b.record_failure(0);
    c.record_failure(0);
  }
  // Same seed -> bit-identical cooldown; different seed -> de-synchronized.
  EXPECT_EQ(a.retry_at(), b.retry_at());
  EXPECT_NE(a.retry_at(), c.retry_at());
  // Jittered cooldown stays within +/- 50% of nominal.
  EXPECT_GE(a.retry_at(), core::kMinute / 2);
  EXPECT_LE(a.retry_at(), 3 * core::kMinute / 2);
}

}  // namespace
}  // namespace hpcmon::resilience
