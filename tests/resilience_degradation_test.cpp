// Storm-mode guarantees, tested as properties: the DegradationController's
// hysteresis (consecutive-tick arming, dead band, one level per transition,
// loss sprint, shed hold) on synthetic health signals, and the ingest door's
// priority contract — critical-class samples are never dropped or rejected —
// across seeded storm schedules, overload policies, and degradation modes.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string_view>
#include <vector>

#include "core/priority.hpp"
#include "core/rng.hpp"
#include "ingest/pipeline.hpp"
#include "ingest/sharded_store.hpp"
#include "obs/exporter.hpp"
#include "obs/registry.hpp"
#include "resilience/degradation.hpp"

namespace hpcmon::resilience {
namespace {

using core::DegradationMode;
using core::Priority;
using core::SampleBatch;
using core::SeriesId;

/// A controller's counter, read by its name in the obs catalog.
std::uint64_t count(const DegradationController& c, std::string_view name) {
  return obs::snapshot_of(c).counter(name);
}

HealthSignals fill(double queue_fill) {
  HealthSignals s;
  s.queue_fill = queue_fill;
  return s;
}

TEST(DegradationControllerTest, StaysNormalInFairWeather) {
  DegradationController c;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(c.evaluate(fill(0.3)), DegradationMode::kNormal);
  }
  EXPECT_EQ(count(c, "resilience.degradation.evaluations"), 100u);
  EXPECT_EQ(count(c, "resilience.degradation.transitions"), 0u);
}

TEST(DegradationControllerTest, EscalationNeedsConsecutiveTicks) {
  DegradationController c;  // enter_ticks = 2
  EXPECT_EQ(c.evaluate(fill(0.8)), DegradationMode::kNormal);
  EXPECT_EQ(c.evaluate(fill(0.8)), DegradationMode::kShedBulk);
  EXPECT_EQ(count(c, "resilience.degradation.escalations"), 1u);

  // A single calm reading disarms the counter: no transition on 0.8-calm-0.8.
  DegradationController d;
  EXPECT_EQ(d.evaluate(fill(0.8)), DegradationMode::kNormal);
  EXPECT_EQ(d.evaluate(fill(0.3)), DegradationMode::kNormal);
  EXPECT_EQ(d.evaluate(fill(0.8)), DegradationMode::kNormal);
  EXPECT_EQ(count(d, "resilience.degradation.transitions"), 0u);
}

TEST(DegradationControllerTest, SustainedOverloadClimbsOneLevelAtATime) {
  DegradationController c;
  std::vector<DegradationMode> changes;
  c.on_change([&](DegradationMode m) { changes.push_back(m); });
  for (int i = 1; i <= 6; ++i) c.evaluate(fill(0.99));
  EXPECT_EQ(changes,
            (std::vector<DegradationMode>{DegradationMode::kShedBulk,
                                          DegradationMode::kSummarize,
                                          DegradationMode::kQuarantine}));
  EXPECT_EQ(c.mode(), DegradationMode::kQuarantine);
  // Saturated: more pressure cannot escalate past the top level.
  for (int i = 7; i <= 10; ++i) c.evaluate(fill(1.0));
  EXPECT_EQ(c.mode(), DegradationMode::kQuarantine);
  EXPECT_EQ(count(c, "resilience.degradation.escalations"), 3u);
}

TEST(DegradationControllerTest, DeadBandHoldsAndExitNeedsConsecutiveTicks) {
  DegradationController c;  // exit[1] = 0.40, enter[2] = 0.90, exit_ticks = 3
  c.evaluate(fill(0.8));
  c.evaluate(fill(0.8));
  ASSERT_EQ(c.mode(), DegradationMode::kShedBulk);
  // The dead band between exit and the next enter threshold holds the mode.
  for (int i = 3; i < 53; ++i) {
    EXPECT_EQ(c.evaluate(fill(0.5)), DegradationMode::kShedBulk);
  }
  EXPECT_EQ(count(c, "resilience.degradation.transitions"), 1u);
  // Calm readings de-escalate only after exit_ticks consecutive evaluations.
  EXPECT_EQ(c.evaluate(fill(0.3)), DegradationMode::kShedBulk);
  EXPECT_EQ(c.evaluate(fill(0.3)), DegradationMode::kShedBulk);
  EXPECT_EQ(c.evaluate(fill(0.3)), DegradationMode::kNormal);
  EXPECT_EQ(count(c, "resilience.degradation.deescalations"), 1u);
}

TEST(DegradationControllerTest, AlternatingPressureNeverFlaps) {
  // The classic flap input: pressure oscillating across both thresholds
  // every tick. Consecutive-tick arming means the controller never moves.
  DegradationController c;
  for (int i = 0; i < 100; ++i) {
    c.evaluate(fill(i % 2 == 0 ? 0.95 : 0.2));
  }
  EXPECT_EQ(c.mode(), DegradationMode::kNormal);
  EXPECT_EQ(count(c, "resilience.degradation.transitions"), 0u);
}

TEST(DegradationControllerTest, InvoluntaryLossSprintsPressureToFull) {
  DegradationController c;
  HealthSignals s;  // every fill signal quiet...
  s.lost_samples = 10;  // ...but samples were lost since the last look
  EXPECT_EQ(c.pressure(s), 1.0);
  // No NEW loss on the next reading: back to the fill signals.
  EXPECT_EQ(c.pressure(s), 0.0);
  s.lost_samples = 25;
  EXPECT_EQ(c.pressure(s), 1.0);
}

TEST(DegradationControllerTest, ActiveSheddingHoldsForItsBudgetThenProbes) {
  DegradationController c;
  c.evaluate(fill(0.8));
  c.evaluate(fill(0.8));
  ASSERT_EQ(c.mode(), DegradationMode::kShedBulk);
  // Fills look calm BECAUSE the door is shedding; fresh sheds hold pressure
  // at the exit threshold so the mode does not relax the instant the gauges
  // clear — but only for shed_hold_ticks evaluations. A degraded mode sheds
  // its own steady-state traffic, so an unbounded hold would pin the
  // controller at its own door forever.
  HealthSignals s = fill(0.1);
  const auto hold = c.config().shed_hold_ticks;
  for (std::uint32_t i = 0; i < hold; ++i) {
    s.shed_samples += 100;  // the door turned more load away
    EXPECT_EQ(c.evaluate(s), DegradationMode::kShedBulk);
  }
  EXPECT_EQ(count(c, "resilience.degradation.transitions"), 1u);
  // Budget spent, gauges still calm: even with the door still shedding, the
  // controller probes downward after exit_ticks more evaluations.
  for (std::uint32_t i = 0; i < c.config().exit_ticks; ++i) {
    s.shed_samples += 100;
    c.evaluate(s);
  }
  EXPECT_EQ(c.mode(), DegradationMode::kNormal);
  EXPECT_EQ(count(c, "resilience.degradation.deescalations"), 1u);
}

TEST(DegradationControllerTest, GenuinePressureRefillsTheShedHold) {
  DegradationController c;
  c.evaluate(fill(0.8));
  c.evaluate(fill(0.8));
  ASSERT_EQ(c.mode(), DegradationMode::kShedBulk);
  // Alternate shed-only calm readings with real fill pressure: the hold
  // budget refills on every genuine reading, so the mode never relaxes
  // mid-storm no matter how long it lasts.
  HealthSignals s;
  for (int i = 3; i < 60; ++i) {
    s.queue_fill = (i % 3 == 0) ? 0.6 : 0.1;  // storm keeps resurfacing
    s.shed_samples += 50;
    EXPECT_EQ(c.evaluate(s), DegradationMode::kShedBulk) << "tick " << i;
  }
  EXPECT_EQ(count(c, "resilience.degradation.transitions"), 1u);
}

TEST(DegradationControllerTest, SeededWalksNeverSkipLevels) {
  // Property: whatever the pressure trajectory, every committed transition
  // moves exactly one level, and the mode stays in range.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    DegradationController c;
    int prev = 0;
    std::uint64_t observed = 0;
    c.on_change([&](DegradationMode m) {
      const int now = static_cast<int>(m);
      EXPECT_EQ(std::abs(now - prev), 1) << "seed " << seed;
      prev = now;
      ++observed;
    });
    core::Rng rng(seed);
    HealthSignals s;
    for (int i = 0; i < 500; ++i) {
      s.queue_fill = rng.uniform(0.0, 1.0);
      s.dlq_fill = rng.uniform(0.0, 1.0);
      if (rng.uniform() < 0.05) s.lost_samples += 1;
      const auto m = static_cast<int>(c.evaluate(s));
      EXPECT_GE(m, 0);
      EXPECT_LT(m, static_cast<int>(core::kDegradationModes));
      EXPECT_EQ(m, prev);  // on_change fired for every committed change
    }
    EXPECT_EQ(count(c, "resilience.degradation.transitions"), observed);
    EXPECT_EQ(count(c, "resilience.degradation.escalations") + count(c, "resilience.degradation.deescalations"), observed);
  }
}

TEST(DegradationControllerTest, OperatorSurfaces) {
  DegradationController c;
  obs::ObsRegistry registry;
  c.attach_to(registry);
  c.evaluate(fill(0.8));
  c.evaluate(fill(0.8));
  ASSERT_EQ(c.mode(), DegradationMode::kShedBulk);

  // The controller's instruments surface through the shared registry.
  const auto snap = registry.snapshot();
  EXPECT_DOUBLE_EQ(snap.gauge("resilience.degradation.mode"), 1.0);
  EXPECT_DOUBLE_EQ(snap.gauge("resilience.degradation.pressure"), 0.8);
  EXPECT_EQ(snap.counter("resilience.degradation.evaluations"), 2u);
  EXPECT_EQ(snap.counter("resilience.degradation.transitions"), 1u);

  // And the exporter re-ingests them as critical-class series: mode
  // telemetry must survive the storms it reports on.
  core::MetricRegistry reg;
  const auto comp = reg.register_component(
      {"resilience", core::ComponentKind::kService, core::kNoComponent});
  const auto samples =
      obs::ObsExporter().to_samples(snap, reg, comp, 3 * core::kMinute);
  ASSERT_GE(samples.size(), 3u);
  for (const auto& s : samples) {
    EXPECT_EQ(reg.series_priority(s.series), Priority::kCritical);
  }
  const auto mode = reg.find_metric("hpcmon.self.resilience.degradation.mode");
  ASSERT_TRUE(mode.has_value());
}

// ---------------------------------------------------------------------------
// Ingest-door half of the contract, driven deterministically (no workers).

ingest::IngestConfig door_config(ingest::OverloadPolicy policy,
                                 std::size_t cap) {
  ingest::IngestConfig cfg;
  cfg.queue_capacity = cap;
  cfg.policy = policy;
  // Series ids map to classes: 0-2 critical, 3-7 standard, 8+ bulk.
  cfg.priority_of = [](SeriesId id) {
    const auto v = static_cast<std::uint32_t>(id);
    if (v < 3) return Priority::kCritical;
    if (v < 8) return Priority::kStandard;
    return Priority::kBulk;
  };
  return cfg;
}

SampleBatch one(std::uint32_t series, core::TimePoint t) {
  SampleBatch b;
  b.sweep_time = t;
  b.samples.push_back({SeriesId{series}, t, 1.0});
  return b;
}

TEST(PriorityDoorTest, CriticalEvictsBulkUnderDropOldest) {
  ingest::ShardedTimeSeriesStore store(1);
  ingest::IngestPipeline pipe(store,
                              door_config(ingest::OverloadPolicy::kDropOldest, 4));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(pipe.submit(one(8, (i + 1) * core::kSecond)), 1u);  // bulk
  }
  EXPECT_EQ(pipe.queue_depth(0), 4u);
  // Critical arrives at a full queue: the oldest bulk item makes room.
  EXPECT_EQ(pipe.submit(one(0, core::kMinute)), 1u);
  const auto snap = obs::snapshot_of(pipe);
  EXPECT_EQ(snap.counter("ingest.dropped_bulk_samples"), 1u);
  EXPECT_EQ(snap.counter("ingest.dropped_critical_samples"), 0u);
  EXPECT_EQ(pipe.queue_depth(0), 4u);
}

TEST(PriorityDoorTest, NothingEvictsCritical) {
  ingest::ShardedTimeSeriesStore store(1);
  ingest::IngestPipeline pipe(store,
                              door_config(ingest::OverloadPolicy::kDropOldest, 3));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(pipe.submit(one(static_cast<std::uint32_t>(i),
                              (i + 1) * core::kSecond)),
              1u);  // queue now all critical
  }
  // Standard and bulk arrivals find nothing they may evict: the INCOMING
  // batch is dropped, the critical backlog is untouched.
  EXPECT_EQ(pipe.submit(one(4, core::kMinute)), 0u);
  EXPECT_EQ(pipe.submit(one(9, core::kMinute)), 0u);
  const auto snap = obs::snapshot_of(pipe);
  EXPECT_EQ(snap.counter("ingest.dropped_standard_samples"), 1u);
  EXPECT_EQ(snap.counter("ingest.dropped_bulk_samples"), 1u);
  EXPECT_EQ(snap.counter("ingest.dropped_critical_samples"), 0u);
  EXPECT_EQ(pipe.queue_depth(0), 3u);
}

TEST(PriorityDoorTest, CriticalBypassesReject) {
  ingest::ShardedTimeSeriesStore store(1);
  ingest::IngestPipeline pipe(store,
                              door_config(ingest::OverloadPolicy::kReject, 2));
  EXPECT_EQ(pipe.submit(one(8, core::kSecond)), 1u);
  EXPECT_EQ(pipe.submit(one(9, 2 * core::kSecond)), 1u);
  // Full queue under kReject: non-critical is refused at the door...
  EXPECT_EQ(pipe.submit(one(4, core::kMinute)), 0u);
  // ...critical falls back to evicting bulk instead of being refused.
  EXPECT_EQ(pipe.submit(one(0, core::kMinute)), 1u);
  const auto snap = obs::snapshot_of(pipe);
  EXPECT_EQ(snap.counter("ingest.rejected_standard_samples"), 1u);
  EXPECT_EQ(snap.counter("ingest.rejected_critical_samples"), 0u);
  EXPECT_EQ(snap.counter("ingest.dropped_bulk_samples"), 1u);
}

TEST(PriorityDoorTest, ModesShedAtTheDoor) {
  ingest::ShardedTimeSeriesStore store(1);
  ingest::IngestPipeline pipe(
      store, door_config(ingest::OverloadPolicy::kBlock, 256));
  core::TimePoint t = core::kSecond;

  pipe.set_mode(core::DegradationMode::kShedBulk);
  EXPECT_EQ(pipe.submit(one(8, t += core::kSecond)), 0u);  // bulk turned away
  EXPECT_EQ(pipe.submit(one(4, t += core::kSecond)), 1u);  // standard flows
  auto snap = obs::snapshot_of(pipe);
  EXPECT_EQ(snap.counter("ingest.shed_bulk_samples"), 1u);

  pipe.set_mode(core::DegradationMode::kSummarize);
  std::size_t admitted = 0;
  for (int i = 0; i < 8; ++i) admitted += pipe.submit(one(4, t += core::kSecond));
  EXPECT_EQ(admitted, 2u);  // every 4th standard sample of the series
  snap = obs::snapshot_of(pipe);
  EXPECT_EQ(snap.counter("ingest.shed_standard_samples"), 6u);

  pipe.set_mode(core::DegradationMode::kQuarantine);
  EXPECT_EQ(pipe.submit(one(4, t += core::kSecond)), 0u);  // standard shed
  EXPECT_EQ(pipe.submit(one(0, t += core::kSecond)), 1u);  // critical flows
  snap = obs::snapshot_of(pipe);
  EXPECT_EQ(snap.counter("ingest.shed_standard_samples"), 7u);
  EXPECT_EQ(snap.counter("ingest.shed_critical_samples"), 0u);

  pipe.set_mode(core::DegradationMode::kNormal);
  EXPECT_EQ(pipe.submit(one(8, t += core::kSecond)), 1u);  // bulk readmitted
  // Voluntary sheds are not involuntary losses.
  snap = obs::snapshot_of(pipe);
  EXPECT_EQ(snap.counter("ingest.dropped_samples") +
                snap.counter("ingest.rejected_samples"),
            0u);
}

TEST(PriorityDoorTest, UnknownSeriesDefaultsToHookResult) {
  // Without a priority hook the machinery is inert: everything is standard
  // and the seed drop-oldest semantics apply unchanged.
  ingest::ShardedTimeSeriesStore store(1);
  ingest::IngestConfig cfg;
  cfg.queue_capacity = 2;
  cfg.policy = ingest::OverloadPolicy::kDropOldest;
  ingest::IngestPipeline pipe(store, cfg);
  EXPECT_EQ(pipe.submit(one(0, core::kSecond)), 1u);
  EXPECT_EQ(pipe.submit(one(1, 2 * core::kSecond)), 1u);
  EXPECT_EQ(pipe.submit(one(2, 3 * core::kSecond)), 1u);  // evicts oldest
  const auto snap = obs::snapshot_of(pipe);
  EXPECT_EQ(snap.counter("ingest.dropped_batches"), 1u);
  EXPECT_EQ(snap.counter("ingest.dropped_standard_samples"), 1u);
}

// The headline property, end to end through real worker threads: across
// seeded storm schedules (random load mix, random mode changes, every
// overload policy), not one critical-class sample is lost — every single one
// is queryable from the store afterwards.
TEST(PriorityDoorTest, SeededStormsNeverLoseCritical) {
  constexpr std::uint32_t kCriticalSeries = 3;
  constexpr int kSubmits = 400;
  const ingest::OverloadPolicy policies[] = {
      ingest::OverloadPolicy::kBlock, ingest::OverloadPolicy::kDropOldest,
      ingest::OverloadPolicy::kReject};
  for (const auto policy : policies) {
    for (std::uint64_t seed = 11; seed <= 14; ++seed) {
      ingest::ShardedTimeSeriesStore store(2);
      auto cfg = door_config(policy, 4);  // tiny queues: constant overload
      ingest::IngestPipeline pipe(store, cfg);
      pipe.start();
      core::Rng rng(seed);
      for (int i = 0; i < kSubmits; ++i) {
        SampleBatch b;
        b.sweep_time = (i + 1) * core::kSecond;
        for (std::uint32_t s = 0; s < kCriticalSeries; ++s) {
          b.samples.push_back({SeriesId{s}, b.sweep_time, 1.0});
        }
        const auto extras = rng.uniform_int(0, 24);
        for (std::int64_t e = 0; e < extras; ++e) {
          const auto s = static_cast<std::uint32_t>(rng.uniform_int(3, 15));
          b.samples.push_back(
              {SeriesId{s}, b.sweep_time + e + 1, rng.uniform()});
        }
        pipe.submit(b);
        if (rng.uniform() < 0.02) {
          pipe.set_mode(static_cast<core::DegradationMode>(
              rng.uniform_int(0, core::kDegradationModes - 1)));
        }
      }
      pipe.drain();
      pipe.stop();
      const auto snap = obs::snapshot_of(pipe);
      EXPECT_EQ(snap.counter("ingest.dropped_critical_samples"), 0u)
          << "policy " << static_cast<int>(policy) << " seed " << seed;
      EXPECT_EQ(snap.counter("ingest.rejected_critical_samples"), 0u);
      EXPECT_EQ(snap.counter("ingest.shed_critical_samples"), 0u);
      EXPECT_EQ(snap.counter("ingest.submitted_critical_samples"),
                static_cast<std::uint64_t>(kSubmits) * kCriticalSeries);
      // Byte-complete: every critical sample is in the store.
      for (std::uint32_t s = 0; s < kCriticalSeries; ++s) {
        EXPECT_EQ(store.query_range(SeriesId{s}, {0, core::kDay}).size(),
                  static_cast<std::size_t>(kSubmits))
            << "series " << s;
      }
    }
  }
}

}  // namespace
}  // namespace hpcmon::resilience
