#include "resilience/degradation.hpp"

#include <algorithm>
#include <string>

namespace hpcmon::resilience {

HealthSignals HealthSignalAssembler::assemble(const obs::ObsSnapshot& snap) {
  HealthSignals hs;
  // Live fill gauges the stack refreshes just before snapshotting.
  hs.queue_fill = snap.gauge("ingest.queue_fill");
  hs.dlq_fill = snap.gauge("resilience.dlq_fill");
  hs.breaker_open_frac = snap.gauge("resilience.breaker_open_frac");
  hs.disk_fill = snap.gauge("compact.disk_fill");
  hs.cache_fill =
      std::min(1.0, snap.gauge("store.cache_entries") / 1024.0);
  // The cumulative failure counter never shrinks, so pressure comes from the
  // delta since the previous assembly (ten failing appends within one window
  // = full pressure from the durability tier).
  const auto failures = snap.counter("resilience.wal_append_failures");
  const auto delta =
      failures >= last_wal_failures_ ? failures - last_wal_failures_ : 0;
  last_wal_failures_ = failures;
  hs.wal_backlog = std::min(1.0, static_cast<double>(delta) / 10.0);
  hs.lost_samples = snap.counter("ingest.dropped_samples") +
                    snap.counter("ingest.rejected_samples");
  for (std::size_t c = 0; c < core::kPriorityClasses; ++c) {
    const std::string cls{core::to_string(static_cast<core::Priority>(c))};
    hs.shed_samples += snap.counter("ingest.shed_" + cls + "_samples");
  }
  return hs;
}

DegradationController::DegradationController(DegradationConfig config)
    : config_(config) {
  config_.enter_ticks = std::max<std::uint32_t>(1, config_.enter_ticks);
  config_.exit_ticks = std::max<std::uint32_t>(1, config_.exit_ticks);
}

double DegradationController::pressure(const HealthSignals& signals) {
  double p = std::max({signals.queue_fill, signals.dlq_fill,
                       signals.wal_backlog, signals.cache_fill,
                       signals.breaker_open_frac, signals.disk_fill});
  // Fresh involuntary loss: samples are already being dropped or rejected,
  // so whatever the fill gauges say, the system is saturated. Sprint up.
  const std::uint64_t lost_delta =
      signals.lost_samples >= last_lost_ ? signals.lost_samples - last_lost_
                                         : signals.lost_samples;
  last_lost_ = signals.lost_samples;
  if (lost_delta > 0) p = 1.0;
  // Fresh voluntary shedding: the door is actively turning load away, which
  // is exactly why the fill gauges look healthy. Hold pressure at the
  // current level's exit threshold so the controller neither escalates off
  // the shed (it is working as designed) nor relaxes into re-admitting the
  // storm the moment the gauges clear. The hold is a BOUNDED budget, not a
  // latch: a degraded mode sheds its own steady-state traffic (QUARANTINE
  // turns every standard sweep away), so an unbounded hold would pin the
  // controller at its own door forever. After shed_hold_ticks consecutive
  // evaluations where ONLY the shed is keeping pressure up, the hold lapses
  // and the controller probes downward; any real pressure (a fill gauge at
  // or above the exit threshold, fresh involuntary loss) refills the budget.
  const std::uint64_t shed_delta =
      signals.shed_samples >= last_shed_ ? signals.shed_samples - last_shed_
                                         : signals.shed_samples;
  last_shed_ = signals.shed_samples;
  const auto level = static_cast<std::size_t>(mode_);
  if (level > 0) {
    if (p >= config_.exit[level]) {
      shed_hold_used_ = 0;  // genuine pressure: the hold budget refills
    } else if (shed_delta > 0 && shed_hold_used_ < config_.shed_hold_ticks) {
      ++shed_hold_used_;
      p = std::max(p, config_.exit[level]);
    }
  }
  return std::clamp(p, 0.0, 1.0);
}

core::DegradationMode DegradationController::evaluate(
    const HealthSignals& signals) {
  evaluations_.add();
  const auto level = static_cast<std::size_t>(mode_);
  const double p = pressure(signals);
  pressure_gauge_.set(p);

  const auto commit = [&](core::DegradationMode next, bool up) {
    mode_ = next;
    mode_gauge_.set(static_cast<double>(static_cast<int>(next)));
    transitions_.add();
    if (up) {
      escalations_.add();
    } else {
      deescalations_.add();
    }
    above_ticks_ = 0;
    below_ticks_ = 0;
    shed_hold_used_ = 0;  // each level gets a fresh anti-flap hold budget
    if (on_change_) on_change_(mode_);
  };

  // Escalation: pressure above the NEXT level's enter threshold for
  // enter_ticks consecutive evaluations, one level per transition.
  if (level + 1 < core::kDegradationModes && p >= config_.enter[level + 1]) {
    below_ticks_ = 0;
    if (++above_ticks_ >= config_.enter_ticks) {
      commit(static_cast<core::DegradationMode>(level + 1), true);
    }
    return mode_;
  }
  // De-escalation: pressure below the CURRENT level's exit threshold for
  // exit_ticks consecutive evaluations.
  if (level > 0 && p < config_.exit[level]) {
    above_ticks_ = 0;
    if (++below_ticks_ >= config_.exit_ticks) {
      commit(static_cast<core::DegradationMode>(level - 1), false);
    }
    return mode_;
  }
  // In the dead band between exit and enter: stay put, disarm both counters.
  above_ticks_ = 0;
  below_ticks_ = 0;
  return mode_;
}

void DegradationController::attach_to(obs::ObsRegistry& registry) const {
  registry.attach({"resilience.degradation.mode", "level",
                   "degradation mode in force (0=NORMAL..3=QUARANTINE)"},
                  &mode_gauge_);
  registry.attach({"resilience.degradation.pressure", "frac",
                   "scalar pressure driving the degradation control loop"},
                  &pressure_gauge_);
  registry.attach({"resilience.degradation.evaluations", "evals",
                   "health readings folded into the control loop"},
                  &evaluations_);
  registry.attach({"resilience.degradation.transitions", "transitions",
                   "mode changes committed by the degradation controller"},
                  &transitions_);
  registry.attach({"resilience.degradation.escalations", "transitions",
                   "mode changes that tightened shedding"},
                  &escalations_);
  registry.attach({"resilience.degradation.deescalations", "transitions",
                   "mode changes that relaxed shedding"},
                  &deescalations_);
}

}  // namespace hpcmon::resilience
