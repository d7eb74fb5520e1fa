// The standing chaos battery: every standard storm scenario (log storm,
// sampler hangs, WAL I/O storm, delivery storm, queue saturation, and the
// kitchen-sink compound) runs end to end through a full chaos-wired
// MonitoringStack, and every one must satisfy the survival invariants — no
// wedge, zero critical samples lost, bounded queues, controller back to
// NORMAL. A disk_storm variant crashes without letting the WAL's writer
// catch up first. Labeled `chaos` (select with ctest -L chaos) and
// `threaded` (the ThreadSanitizer preset runs the whole battery under tsan).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>

#include "resilience/chaos.hpp"
#include "stack/chaos_harness.hpp"

namespace hpcmon::stack {
namespace {

TEST(ChaosStormTest, BatteryHasAtLeastFiveDistinctScenarios) {
  const auto scenarios = resilience::standard_storm_scenarios();
  EXPECT_GE(scenarios.size(), 5u);
  std::set<std::string> names;
  std::set<std::uint64_t> seeds;
  for (const auto& s : scenarios) {
    names.insert(s.name);
    seeds.insert(s.seed);
    EXPECT_FALSE(s.phases.empty()) << s.name;
    EXPECT_GT(s.total, 0) << s.name;
    for (const auto& p : s.phases) {
      EXPECT_GE(p.start, 0) << s.name;
      EXPECT_LE(p.start + p.duration, s.total) << s.name;  // recovery window
    }
  }
  EXPECT_EQ(names.size(), scenarios.size());  // distinct storms...
  EXPECT_EQ(seeds.size(), scenarios.size());  // ...under distinct seeds
}

TEST(ChaosStormTest, EveryStandardScenarioSurvives) {
  bool controller_engaged = false;
  bool shed_observed = false;
  for (const auto& scenario : resilience::standard_storm_scenarios()) {
    const auto report = run_chaos(scenario);
    EXPECT_TRUE(report.ok()) << report.to_string();
    EXPECT_TRUE(report.survived) << report.to_string();
    EXPECT_EQ(report.critical_lost, 0u) << report.to_string();
    EXPECT_EQ(report.heartbeats_stored, report.heartbeats_sent)
        << report.to_string();
    EXPECT_TRUE(report.returned_to_normal) << report.to_string();
    EXPECT_LE(report.dead_letters, report.dead_letter_cap)
        << report.to_string();
    controller_engaged = controller_engaged || report.max_mode > 0;
    shed_observed =
        shed_observed || report.bulk_shed > 0 || report.standard_shed > 0;
  }
  // The battery is not a fair-weather rubber stamp: at least one storm must
  // push the controller off NORMAL and force actual load shedding.
  EXPECT_TRUE(controller_engaged);
  EXPECT_TRUE(shed_observed);
}

TEST(ChaosStormTest, DiskStormCrashWithoutWalSyncKeepsEveryDecidedBeat) {
  // disk_storm's drill lets the WAL's writer thread catch up before the
  // crash. This variant does not: the crash lands on whatever the writer
  // still holds. Every heartbeat decided before the crash must survive it;
  // the ones still posted die with the process, and the writer's lag at
  // the crash is reported.
  const auto scenarios = resilience::standard_storm_scenarios();
  const auto it = std::find_if(
      scenarios.begin(), scenarios.end(),
      [](const resilience::ChaosScenario& s) { return s.name == "disk_storm"; });
  ASSERT_NE(it, scenarios.end());
  auto scenario = *it;
  ASSERT_GT(scenario.crash_restart_at, 0);
  scenario.name = "disk_storm_unsynced";
  scenario.crash_syncs_wal = false;
  const auto report = run_chaos(scenario);
  std::printf("%s; WAL writer lag at the crash: %llu records, %llu beats\n",
              report.to_string().c_str(),
              static_cast<unsigned long long>(report.crash_undecided_records),
              static_cast<unsigned long long>(
                  report.crash_undecided_heartbeats));
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.heartbeats_stored + report.crash_undecided_heartbeats,
            report.heartbeats_sent)
      << report.to_string();
  EXPECT_LE(report.crash_undecided_heartbeats, report.crash_undecided_records);
}

TEST(ChaosStormTest, RerunningAScenarioReproducesTheTimeline) {
  // The simulated-timeline half of a storm (fault schedule, load, heartbeat
  // cadence) is deterministic under its seed, so a rerun sends the exact
  // same beats and survives the same way. (Real-thread drain timing may
  // differ; the invariants must hold regardless.)
  const auto scenarios = resilience::standard_storm_scenarios();
  ASSERT_FALSE(scenarios.empty());
  const auto& scenario = scenarios.front();
  const auto a = run_chaos(scenario);
  const auto b = run_chaos(scenario);
  EXPECT_TRUE(a.ok()) << a.to_string();
  EXPECT_TRUE(b.ok()) << b.to_string();
  EXPECT_EQ(a.heartbeats_sent, b.heartbeats_sent);
}

}  // namespace
}  // namespace hpcmon::stack
