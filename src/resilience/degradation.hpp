// DegradationController: closed-loop, priority-aware graceful degradation.
//
// The paper's sites all describe the same failure: the monitoring system is
// engineered for fair weather, and the first full-system storm (a log storm,
// a network-wide error burst, a wedged store) takes monitoring down exactly
// when operators need it most (Secs. III-IV). hpcmon's storm mode closes the
// loop: this controller watches the stack's own health telemetry and moves
// through four modes, each shedding more low-priority load so critical
// telemetry keeps flowing:
//
//   NORMAL      everything at full cadence
//   SHED_BULK   bulk-class series turned away at the ingest door
//   SUMMARIZE   + standard-class series downsampled (ingest stride admission
//               and wider sampler cadence)
//   QUARANTINE  only critical-class series flow at all
//
// The controller itself is policy-free glue: it consumes a plain
// HealthSignals struct (the owning stack gathers queue fill, loss counters,
// DLQ/WAL/breaker/cache state) and invokes an on_change callback with the
// new mode; the stack wires that to IngestPipeline::set_mode and to
// SupervisedSampler::set_stride. Keeping the controller free of ingest/stack
// types lets property tests drive it with synthetic signals, and avoids a
// dependency cycle (ingest enforces, resilience decides, stack wires).
//
// Flap resistance (the part worth being careful about):
//   * escalation requires `enter_ticks` consecutive evaluations above the
//     next level's enter threshold; de-escalation requires `exit_ticks`
//     consecutive evaluations below the current level's exit threshold, and
//     exit thresholds sit well below enter thresholds (hysteresis band);
//   * transitions move ONE level at a time, except that fresh involuntary
//     loss (drops/rejects since the last evaluation) forces pressure to 1.0
//     — data is already being lost, so the controller sprints upward;
//   * fresh voluntary shedding holds pressure at no less than the current
//     level's exit threshold — while the door is actively turning load away,
//     relaxing would re-admit the storm (flapping) — but the hold is a
//     bounded budget (shed_hold_ticks), because a degraded mode sheds its
//     own steady-state traffic and an unbounded hold would never stand down.
//     When the budget lapses with every fill gauge calm, the controller
//     probes one level down; if the storm is still on, the probe re-arms
//     escalation and the counters record a slow bounded oscillation instead
//     of a tight flap.
// All timing is on the simulated timeline: deterministic, seedable tests.
#pragma once

#include <array>
#include <cstdint>
#include <functional>

#include "core/priority.hpp"
#include "obs/registry.hpp"

namespace hpcmon::resilience {

/// One evaluation's worth of observed stack health; every field is a live
/// reading, not a delta, except the two cumulative counters noted.
struct HealthSignals {
  double queue_fill = 0.0;    // max ingest shard queue depth / capacity
  double dlq_fill = 0.0;      // dead-letter queue size / capacity
  double wal_backlog = 0.0;   // WAL append failures mapped into [0,1]
  double cache_fill = 0.0;    // store decode-cache pressure in [0,1]
  double breaker_open_frac = 0.0;  // open breakers / supervised samplers
  double disk_fill = 0.0;  // tier-ladder disk bytes / configured budget
  /// Cumulative involuntarily lost samples (ingest dropped + rejected);
  /// the controller reacts to the delta since its previous evaluation.
  std::uint64_t lost_samples = 0;
  /// Cumulative voluntarily shed samples (degradation-mode door sheds).
  std::uint64_t shed_samples = 0;
};

/// Builds a HealthSignals reading from an ObsSnapshot — the SAME snapshot
/// the exporter prints and the self-series are cut from, so the control
/// loop, the chaos assertions, and the operator report read identical
/// numbers by construction. Stateful only for the WAL-failure delta (the
/// cumulative counter never shrinks; pressure comes from failures within
/// one evaluation window — ten failing appends in a window = full pressure
/// from the durability tier).
class HealthSignalAssembler {
 public:
  HealthSignals assemble(const obs::ObsSnapshot& snap);

 private:
  std::uint64_t last_wal_failures_ = 0;
};

struct DegradationConfig {
  /// Pressure needed to arm escalation INTO level i (index 1..3; index 0
  /// unused). Defaults leave headroom between levels so one noisy signal
  /// does not sprint to QUARANTINE.
  std::array<double, core::kDegradationModes> enter = {0.0, 0.75, 0.90, 0.98};
  /// Pressure below which de-escalation OUT of level i arms. Must sit well
  /// below enter[i] (hysteresis band).
  std::array<double, core::kDegradationModes> exit = {0.0, 0.40, 0.55, 0.70};
  /// Consecutive evaluations required before a transition commits.
  std::uint32_t enter_ticks = 2;
  std::uint32_t exit_ticks = 3;
  /// Max consecutive evaluations the voluntary-shed hold may keep pressure
  /// at the exit threshold with every fill gauge calm; afterwards the
  /// controller probes downward. Refilled by any genuine pressure reading
  /// and on every committed transition.
  std::uint32_t shed_hold_ticks = 4;
  /// Sampler cadence divisor per mode (NORMAL..QUARANTINE), applied by the
  /// stack to non-critical supervised samplers.
  std::array<std::uint32_t, core::kDegradationModes> sampler_stride = {1, 1, 2,
                                                                      4};
};

class DegradationController {
 public:
  explicit DegradationController(DegradationConfig config = {});

  /// Invoked (synchronously, from evaluate) whenever the mode changes.
  void on_change(std::function<void(core::DegradationMode)> cb) {
    on_change_ = std::move(cb);
  }

  /// Fold one reading of the stack's health into the control loop; returns
  /// the mode in force after the evaluation. Call at a fixed cadence on the
  /// simulated timeline.
  core::DegradationMode evaluate(const HealthSignals& signals);

  core::DegradationMode mode() const { return mode_; }
  const DegradationConfig& config() const { return config_; }

  /// Scalar pressure in [0,1] derived from `signals` (max of the fill
  /// signals, with loss/shed deltas applied as described in the header).
  /// Exposed for tests and the ablation bench.
  double pressure(const HealthSignals& signals);

  /// Catalog the controller's instruments as resilience.degradation.* in
  /// `registry`. All default critical priority — mode telemetry must
  /// survive the very storms it reports on.
  void attach_to(obs::ObsRegistry& registry) const;

 private:
  DegradationConfig config_;
  core::DegradationMode mode_ = core::DegradationMode::kNormal;
  std::function<void(core::DegradationMode)> on_change_;
  obs::Counter evaluations_;
  obs::Counter transitions_;
  obs::Counter escalations_;
  obs::Counter deescalations_;
  obs::Gauge mode_gauge_;      // 0=NORMAL..3=QUARANTINE, set on commit
  obs::Gauge pressure_gauge_;  // last evaluation's scalar pressure
  std::uint32_t above_ticks_ = 0;  // consecutive evals arming escalation
  std::uint32_t below_ticks_ = 0;  // consecutive evals arming de-escalation
  std::uint64_t last_lost_ = 0;
  std::uint64_t last_shed_ = 0;
  std::uint32_t shed_hold_used_ = 0;  // anti-flap hold budget spent so far
};

}  // namespace hpcmon::resilience
