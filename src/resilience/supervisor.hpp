// SupervisedSampler: deadline watchdog + circuit breaker around any Sampler.
//
// The failure the paper's sites feared most from synchronized sweeps: one
// wedged probe (dead filesystem mount, hung vendor ioctl) stalls the entire
// sweep, and then monitoring itself is down exactly when it is needed
// (Sec. III; LANL's health checks exist because probes DO hang). The
// supervisor guarantees a sweep is never held hostage:
//
//   * deadline: with deadline_ms > 0 the wrapped sample() runs on a
//     watchdog thread; if it does not finish within the (real-time)
//     deadline, the call is abandoned — the sweep continues with whatever
//     the other samplers produced, and the abandoned thread parks until the
//     hung call eventually returns (its output is discarded).
//   * errors: a sampler that throws is contained and counted; the sweep
//     continues.
//   * quarantine: consecutive failures open a CircuitBreaker (on the
//     simulated timeline, so transitions are deterministic); while open, the
//     sampler is skipped entirely — a permanently hung source degrades to
//     "that source is dark and counted", not "the sweep stalls".
//
// With deadline_ms == 0 the call runs inline (no threads, bit-deterministic)
// with error containment + breaker only; this is what MonitoringStack uses
// by default so existing deterministic runs are unchanged.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "collect/sampler.hpp"
#include "core/priority.hpp"
#include "obs/registry.hpp"
#include "resilience/breaker.hpp"

namespace hpcmon::resilience {

struct SupervisorOptions {
  /// Real-time budget per sample() call; 0 = inline (no watchdog thread).
  int deadline_ms = 0;
  BreakerConfig breaker;
  /// Seed for this sampler's breaker-jitter stream.
  std::uint64_t seed = 0x5EEDB4EA;
  /// Shedding class of the series this sampler produces: the degradation
  /// controller widens cadence (set_stride) on standard/bulk samplers under
  /// storm load but never on critical ones.
  core::Priority priority = core::Priority::kStandard;
};

class SupervisedSampler : public collect::Sampler {
 public:
  /// Takes ownership of `inner`. The inner sampler may outlive this wrapper
  /// if a call was abandoned mid-hang (shared ownership with the watchdog
  /// thread); anything the inner sampler references must outlive that hang.
  SupervisedSampler(std::unique_ptr<collect::Sampler> inner,
                    SupervisorOptions options);
  ~SupervisedSampler() override = default;

  std::string name() const override { return inner_->name(); }
  void sample(core::TimePoint sweep_time, core::SampleBatch& out) override;

  BreakerState breaker_state() const { return breaker_.state(); }
  const CircuitBreaker& breaker() const { return breaker_; }
  core::Priority priority() const { return options_.priority; }

  /// Catalog this sampler's instruments as resilience.sampler_* in
  /// `registry` (plus the breaker's resilience.breaker_*). All supervised
  /// samplers share the names; the registry sums them at snapshot time.
  void attach_to(obs::ObsRegistry& registry) const;

  /// Cadence divisor under degradation: with stride N this sampler runs on
  /// every Nth sweep and the rest are counted as downsampled (no inner call,
  /// no error/breaker accounting). 1 restores full cadence; 0 is clamped to
  /// 1. Safe to call from any thread.
  void set_stride(std::uint32_t stride) {
    stride_.store(stride == 0 ? 1 : stride, std::memory_order_relaxed);
  }
  std::uint32_t stride() const {
    return stride_.load(std::memory_order_relaxed);
  }

 private:
  void run_inline(core::TimePoint sweep_time, core::SampleBatch& out);
  void run_with_deadline(core::TimePoint sweep_time, core::SampleBatch& out);

  std::shared_ptr<collect::Sampler> inner_;
  SupervisorOptions options_;
  CircuitBreaker breaker_;
  obs::Counter calls_;
  obs::Counter successes_;
  obs::Counter errors_;
  obs::Counter timeouts_;
  obs::Counter skipped_;
  obs::Counter downsampled_;
  obs::Counter samples_merged_;
  std::atomic<std::uint32_t> stride_{1};
  std::uint64_t sweep_seq_ = 0;  // advances once per sample() call
};

}  // namespace hpcmon::resilience
