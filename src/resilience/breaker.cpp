#include "resilience/breaker.hpp"

#include <algorithm>
#include <cmath>

namespace hpcmon::resilience {

std::string_view to_string(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half_open";
  }
  return "?";
}

bool CircuitBreaker::allow(core::TimePoint now) {
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (now >= retry_at_) {
        state_ = BreakerState::kHalfOpen;
        half_open_probes_.add();
        return true;  // this call is the probe
      }
      denied_.add();
      return false;
    case BreakerState::kHalfOpen:
      // One probe at a time; further calls wait for its verdict.
      denied_.add();
      return false;
  }
  return true;
}

void CircuitBreaker::record_success(core::TimePoint) {
  consecutive_failures_ = 0;
  if (state_ == BreakerState::kHalfOpen) {
    state_ = BreakerState::kClosed;
    reopen_streak_ = 0;
    closes_.add();
  }
}

void CircuitBreaker::record_failure(core::TimePoint now) {
  if (state_ == BreakerState::kHalfOpen) {
    open(now);  // probe failed: back off harder
    return;
  }
  ++consecutive_failures_;
  if (state_ == BreakerState::kClosed &&
      consecutive_failures_ >= config_.failure_threshold) {
    open(now);
  }
}

void CircuitBreaker::open(core::TimePoint now) {
  state_ = BreakerState::kOpen;
  opens_.add();
  ++reopen_streak_;
  const double factor =
      std::pow(config_.backoff_factor, reopen_streak_ - 1);
  double cooldown = static_cast<double>(config_.cooldown) * factor;
  cooldown = std::min(cooldown, static_cast<double>(config_.max_cooldown));
  if (config_.jitter > 0.0) {
    cooldown *= 1.0 + config_.jitter * rng_.uniform(-1.0, 1.0);
  }
  retry_at_ = now + static_cast<core::Duration>(std::max(cooldown, 1.0));
}

void CircuitBreaker::attach_to(obs::ObsRegistry& registry) const {
  registry.attach({"resilience.breaker_opens", "transitions",
                   "circuit breakers opened (quarantine began)"},
                  &opens_);
  registry.attach({"resilience.breaker_probes", "calls",
                   "half-open probes admitted after a cooldown"},
                  &half_open_probes_);
  registry.attach({"resilience.breaker_closes", "transitions",
                   "breakers closed again after a successful probe"},
                  &closes_);
  registry.attach({"resilience.breaker_denied", "calls",
                   "calls refused while a breaker was open"},
                  &denied_);
}

}  // namespace hpcmon::resilience
