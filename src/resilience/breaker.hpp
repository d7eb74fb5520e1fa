// Circuit breaker for flaky telemetry sources.
//
// The paper's sites all hit the same operational failure: one hung or
// erroring collector stalls or pollutes the whole synchronized sweep
// (Sec. III; MPCDF and ORNL both supervise collectors for exactly this
// reason). The breaker turns "keeps failing" into "stop asking for a
// while": closed (normal) -> open after `failure_threshold` consecutive
// failures (calls denied) -> half-open after a cooldown (one probe allowed)
// -> closed again on probe success, or re-open with exponentially longer
// cooldown on probe failure. Jitter (a seeded-RNG fraction of the cooldown)
// de-synchronizes many breakers recovering at once — deterministic under a
// fixed seed, like everything else in hpcmon.
//
// The breaker is a pure state machine on the simulated timeline: it never
// reads a clock and owns no threads, so it is trivially unit-testable and
// its transitions are bit-reproducible.
#pragma once

#include <cstdint>
#include <string_view>

#include "core/rng.hpp"
#include "core/time.hpp"
#include "obs/registry.hpp"

namespace hpcmon::resilience {

enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };

std::string_view to_string(BreakerState state);

struct BreakerConfig {
  int failure_threshold = 3;  // consecutive failures before opening
  core::Duration cooldown = 5 * core::kMinute;  // first open duration
  double backoff_factor = 2.0;                  // cooldown growth per re-open
  core::Duration max_cooldown = core::kHour;
  double jitter = 0.1;  // +/- fraction of the cooldown, drawn per open
};

class CircuitBreaker {
 public:
  explicit CircuitBreaker(BreakerConfig config = {},
                          std::uint64_t jitter_seed = 0x5EEDB4EA)
      : config_(config), rng_(jitter_seed) {}

  /// May the protected call proceed at `now`? Performs the open -> half-open
  /// transition when the cooldown has elapsed (the admitted call is the
  /// probe). Denials are counted.
  bool allow(core::TimePoint now);

  void record_success(core::TimePoint now);
  void record_failure(core::TimePoint now);

  BreakerState state() const { return state_; }
  int consecutive_failures() const { return consecutive_failures_; }
  /// Earliest time a half-open probe will be admitted (meaningful when open).
  core::TimePoint retry_at() const { return retry_at_; }
  /// Catalog the breaker's counters as resilience.breaker_* in `registry`
  /// (shared names across breakers; the registry sums at snapshot time).
  void attach_to(obs::ObsRegistry& registry) const;

 private:
  void open(core::TimePoint now);

  BreakerConfig config_;
  core::Rng rng_;
  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  int reopen_streak_ = 0;  // consecutive opens without a close (backoff exp.)
  core::TimePoint retry_at_ = 0;
  obs::Counter opens_;
  obs::Counter half_open_probes_;
  obs::Counter closes_;
  obs::Counter denied_;
};

}  // namespace hpcmon::resilience
