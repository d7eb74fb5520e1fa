// SupervisedSampler: error containment, deadline watchdog, quarantine via
// the circuit breaker, and the headline guarantee — one permanently hung
// source never stalls the sweep.
#include "resilience/supervisor.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "resilience/fault.hpp"

namespace hpcmon::resilience {
namespace {

using core::SampleBatch;
using core::TimePoint;

/// Emits one sample per sweep; throws while `fail` is set (after first
/// polluting the output batch, so discard-on-error is observable).
class ScriptedSampler : public collect::Sampler {
 public:
  explicit ScriptedSampler(bool* fail) : fail_(fail) {}
  std::string name() const override { return "scripted"; }
  void sample(TimePoint sweep_time, SampleBatch& out) override {
    ++calls;
    out.samples.push_back({core::SeriesId{1}, sweep_time, 1.0});
    if (*fail_) throw std::runtime_error("scripted failure");
  }
  int calls = 0;

 private:
  bool* fail_;
};

SupervisorOptions inline_options(int threshold, core::Duration cooldown) {
  SupervisorOptions o;
  o.deadline_ms = 0;
  o.breaker.failure_threshold = threshold;
  o.breaker.cooldown = cooldown;
  o.breaker.jitter = 0.0;
  return o;
}

TEST(SupervisorTest, InlineErrorsContainedAndPartialOutputDiscarded) {
  bool fail = true;
  SupervisedSampler sup(std::make_unique<ScriptedSampler>(&fail),
                        inline_options(5, core::kMinute));
  SampleBatch out;
  out.sweep_time = 0;
  sup.sample(0, out);
  // The sampler pushed a sample before throwing; the supervisor discarded it.
  EXPECT_TRUE(out.samples.empty());
  EXPECT_EQ(obs::snapshot_of(sup).counter("resilience.sampler_errors"), 1u);
  fail = false;
  sup.sample(core::kMinute, out);
  EXPECT_EQ(out.samples.size(), 1u);
  const auto snap = obs::snapshot_of(sup);
  EXPECT_EQ(snap.counter("resilience.sampler_successes"), 1u);
  EXPECT_EQ(snap.counter("resilience.sampler_samples"), 1u);
}

TEST(SupervisorTest, BreakerOpensHalfOpensAndCloses) {
  bool fail = true;
  SupervisedSampler sup(std::make_unique<ScriptedSampler>(&fail),
                        inline_options(2, 5 * core::kMinute));
  SampleBatch out;
  const auto sweep = [&](TimePoint t) { sup.sample(t, out); };

  sweep(0 * core::kMinute);
  EXPECT_EQ(sup.breaker_state(), BreakerState::kClosed);
  sweep(1 * core::kMinute);  // 2nd consecutive failure -> open
  EXPECT_EQ(sup.breaker_state(), BreakerState::kOpen);
  sweep(2 * core::kMinute);  // quarantined: inner sampler not called
  sweep(3 * core::kMinute);
  auto snap = obs::snapshot_of(sup);
  EXPECT_EQ(snap.counter("resilience.sampler_skipped"), 2u);
  EXPECT_EQ(snap.counter("resilience.sampler_errors"), 2u);

  fail = false;  // source repaired; next admitted call is the probe
  sweep(6 * core::kMinute);  // past retry_at (1min open + 5min cooldown)
  EXPECT_EQ(sup.breaker_state(), BreakerState::kClosed);
  // The sampler's snapshot includes its breaker's counters.
  snap = obs::snapshot_of(sup);
  EXPECT_EQ(snap.counter("resilience.breaker_probes"), 1u);
  EXPECT_EQ(snap.counter("resilience.breaker_closes"), 1u);
  EXPECT_EQ(out.samples.size(), 1u);
  EXPECT_EQ(snap.counter("resilience.sampler_calls"), 5u);
}

TEST(SupervisorTest, DeadlineAbandonsHungCallAndQuarantines) {
  FaultSpec spec;
  spec.sampler_hang_at = 1;
  spec.sampler_hang_sticky = true;  // permanently wedged probe
  FaultPlan plan(99, spec);

  bool fail = false;
  auto inner = std::make_unique<ScriptedSampler>(&fail);
  SupervisorOptions opts;
  opts.deadline_ms = 25;
  opts.breaker.failure_threshold = 2;
  opts.breaker.cooldown = core::kHour;
  opts.breaker.jitter = 0.0;
  SupervisedSampler sup(
      std::make_unique<FaultySampler>(std::move(inner), plan), opts);

  SampleBatch out;
  for (int i = 0; i < 5; ++i) {
    sup.sample(i * core::kMinute, out);  // returns despite the hang
  }
  const auto snap = obs::snapshot_of(sup);
  // Two abandoned watchdog calls, then the breaker quarantined it.
  EXPECT_EQ(snap.counter("resilience.sampler_timeouts"), 2u);
  EXPECT_EQ(snap.counter("resilience.sampler_skipped"), 3u);
  EXPECT_EQ(sup.breaker_state(), BreakerState::kOpen);
  EXPECT_TRUE(out.samples.empty());
  EXPECT_EQ(plan.active_hangs(), 2u);
  plan.release_hangs();
  EXPECT_EQ(plan.active_hangs(), 0u);
  // Give the released (detached) watchdog threads a beat to finish.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
}

TEST(SupervisorTest, HungSamplerNeverStallsTheSweep) {
  // Acceptance scenario: one permanently hung source among healthy ones.
  // Every sweep must complete and the healthy sources must keep producing.
  FaultSpec spec;
  spec.sampler_hang_at = 1;
  spec.sampler_hang_sticky = true;
  FaultPlan plan(7, spec);

  bool never_fail = false;
  SupervisorOptions opts;
  opts.deadline_ms = 25;
  opts.breaker.failure_threshold = 2;
  opts.breaker.cooldown = core::kHour;  // stays dark for the whole test
  opts.breaker.jitter = 0.0;

  SupervisorOptions healthy_opts = opts;
  healthy_opts.deadline_ms = 2000;  // generous: healthy calls always finish

  std::vector<std::unique_ptr<SupervisedSampler>> samplers;
  samplers.push_back(std::make_unique<SupervisedSampler>(
      std::make_unique<FaultySampler>(
          std::make_unique<ScriptedSampler>(&never_fail), plan),
      opts));
  samplers.push_back(std::make_unique<SupervisedSampler>(
      std::make_unique<ScriptedSampler>(&never_fail), healthy_opts));
  samplers.push_back(std::make_unique<SupervisedSampler>(
      std::make_unique<ScriptedSampler>(&never_fail), healthy_opts));

  constexpr int kSweeps = 6;
  std::size_t healthy_samples = 0;
  for (int i = 0; i < kSweeps; ++i) {
    SampleBatch sweep;
    sweep.sweep_time = i * core::kMinute;
    for (auto& s : samplers) s->sample(sweep.sweep_time, sweep);
    healthy_samples += sweep.samples.size();
  }
  // Both healthy sources produced on every sweep; the hung one contributed
  // nothing but cost at most two 25 ms deadlines before quarantine.
  EXPECT_EQ(healthy_samples, 2u * kSweeps);
  const auto hung = obs::snapshot_of(*samplers[0]);
  EXPECT_EQ(hung.counter("resilience.sampler_timeouts"), 2u);
  EXPECT_EQ(hung.counter("resilience.sampler_skipped"), kSweeps - 2u);
  EXPECT_EQ(samplers[0]->breaker_state(), BreakerState::kOpen);
  for (std::size_t i = 1; i < samplers.size(); ++i) {
    EXPECT_EQ(obs::snapshot_of(*samplers[i])
                  .counter("resilience.sampler_successes"),
              static_cast<std::uint64_t>(kSweeps));
  }
  EXPECT_EQ(plan.injected().sampler_hangs, 2u);

  // Attached to one registry, the samplers' shared names sum.
  obs::ObsRegistry registry;
  for (auto& s : samplers) s->attach_to(registry);
  const auto total = registry.snapshot();
  EXPECT_EQ(total.counter("resilience.sampler_calls"), 3u * kSweeps);
  EXPECT_EQ(total.counter("resilience.sampler_timeouts"), 2u);

  plan.release_hangs();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
}

TEST(SupervisorTest, DeadlinePathMergesSuccessfulOutput) {
  bool fail = false;
  SupervisorOptions opts;
  opts.deadline_ms = 2000;  // generous: the call always finishes
  SupervisedSampler sup(std::make_unique<ScriptedSampler>(&fail), opts);
  SampleBatch out;
  out.sweep_time = core::kMinute;
  out.samples.push_back({core::SeriesId{9}, 0, 9.0});  // pre-existing content
  sup.sample(core::kMinute, out);
  ASSERT_EQ(out.samples.size(), 2u);
  EXPECT_EQ(out.samples[1].time, core::kMinute);
  EXPECT_EQ(obs::snapshot_of(sup).counter("resilience.sampler_successes"), 1u);
  // A thrown error on the watchdog thread is contained and counted too.
  fail = true;
  sup.sample(2 * core::kMinute, out);
  EXPECT_EQ(out.samples.size(), 2u);
  EXPECT_EQ(obs::snapshot_of(sup).counter("resilience.sampler_errors"), 1u);
}

}  // namespace
}  // namespace hpcmon::resilience
