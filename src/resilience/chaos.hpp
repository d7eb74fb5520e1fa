// ChaosSchedule: seeded, full-stack storm scenarios.
//
// FaultPlan (fault.hpp) injects individual faults; a real incident is never
// one fault. The paper's war stories are compound: a fabric error burst IS a
// log storm IS a console-forwarder overload (Sec. IV-B), a filesystem
// brownout hangs probes AND backs up the store. ChaosSchedule scripts that
// shape: a scenario is a set of possibly-overlapping StormPhases, each
// contributing fault probabilities and synthetic load (log storms, bulk
// floods); arming the schedule onto the simulated EventQueue swaps the
// composed FaultSpec into a live FaultPlan at every phase boundary, so the
// whole storm is deterministic under its seed and replayable in CI.
//
// The harness side — building a stack, generating the load the phases ask
// for, asserting the survival invariants — lives in stack/chaos_harness.hpp
// (the stack depends on resilience, not the other way around).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/time.hpp"
#include "resilience/fault.hpp"
#include "sim/event_queue.hpp"

namespace hpcmon::resilience {

/// One windowed contribution to the storm. Overlapping phases compose: the
/// active FaultSpec takes, per fault class, the max probability over active
/// phases (and ORs sticky flags; scripted one-shot indices compose by max,
/// so give at most one active phase a scripted fault).
struct StormPhase {
  std::string label;
  core::Duration start = 0;     // offset from the armed t0
  core::Duration duration = 0;  // phase length on the simulated timeline
  FaultSpec spec;               // fault pressure while the phase is active
  /// Synthetic load the harness generates every tick while active.
  std::uint32_t log_events_per_tick = 0;    // log storm intensity
  std::uint32_t bulk_batches_per_tick = 0;  // bulk-class ingest flood
};

struct ChaosScenario {
  std::string name;
  std::uint64_t seed = 1;
  /// Scenario length including the post-storm recovery window the invariants
  /// are checked over (controller must be back to NORMAL by the end).
  core::Duration total = 0;
  std::vector<StormPhase> phases;
  /// Stack config overrides this scenario needs (key, value).
  std::vector<std::pair<std::string, std::string>> config_overrides;
  /// When nonzero, the harness hard-crashes the stack (no shutdown, exactly
  /// as simulate_crash()) at this offset from t0 and rebuilds it on the same
  /// WAL/tier directories — the recovery path runs mid-storm, and the
  /// zero-critical-loss invariant must hold across the restart.
  core::Duration crash_restart_at = 0;
  /// With crash_restart_at: before the crash, let the WAL's writer thread
  /// decide every frame posted so far (sync), as the simulated seconds
  /// before the crash would in real time. Off, the crash lands on whatever
  /// the writer still holds: only heartbeats decided before it must
  /// survive, and the report carries the writer's lag.
  bool crash_syncs_wal = true;
};

class ChaosSchedule {
 public:
  struct Hooks {
    std::function<void(const StormPhase&, core::TimePoint)> phase_start;
    std::function<void(const StormPhase&, core::TimePoint)> phase_end;
  };

  explicit ChaosSchedule(ChaosScenario scenario)
      : scenario_(std::move(scenario)),
        active_(scenario_.phases.size(), false) {}

  /// Schedule every phase boundary on `events`: at each boundary the specs
  /// of the then-active phases are composed into `plan` and the matching
  /// hook fires. The schedule and the plan must outlive the armed events.
  void arm(sim::EventQueue& events, core::TimePoint t0, FaultPlan& plan,
           Hooks hooks = {});

  /// Phases currently active (valid while armed events are firing).
  std::vector<const StormPhase*> active_phases() const;
  /// Max synthetic load over the active phases, for the harness tick.
  std::uint32_t active_log_events_per_tick() const;
  std::uint32_t active_bulk_batches_per_tick() const;

  const ChaosScenario& scenario() const { return scenario_; }

 private:
  FaultSpec composed() const;

  ChaosScenario scenario_;
  std::vector<bool> active_;
};

/// The standing storm battery every chaos build runs: at least five distinct
/// seeded scenarios (log storm, hang storm, WAL I/O storm, delivery storm,
/// queue saturation, a kitchen-sink compound, and a disk storm that crashes
/// the stack mid-compaction and restarts it into an ENOSPC burst).
std::vector<ChaosScenario> standard_storm_scenarios();

/// The two-stack relay battery: every socket fault class (resets, stalls,
/// short writes/reads, torn frames) over a node→aggregator wire, concurrent
/// with a bulk ingest flood. Run by stack/chaos_harness.hpp's
/// run_network_storm, which asserts zero acknowledged critical-sample loss
/// and a byte-exact critical series on the aggregator.
ChaosScenario network_storm_scenario();

}  // namespace hpcmon::resilience
