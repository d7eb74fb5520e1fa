#include "resilience/chaos.hpp"

#include <algorithm>

namespace hpcmon::resilience {

FaultSpec ChaosSchedule::composed() const {
  FaultSpec out;
  for (std::size_t i = 0; i < scenario_.phases.size(); ++i) {
    if (!active_[i]) continue;
    const auto& s = scenario_.phases[i].spec;
    out.sampler_error_p = std::max(out.sampler_error_p, s.sampler_error_p);
    out.sampler_hang_p = std::max(out.sampler_hang_p, s.sampler_hang_p);
    out.delivery_error_p = std::max(out.delivery_error_p, s.delivery_error_p);
    out.fs_error_p = std::max(out.fs_error_p, s.fs_error_p);
    out.fs_short_write_p = std::max(out.fs_short_write_p, s.fs_short_write_p);
    out.fs_enospc_p = std::max(out.fs_enospc_p, s.fs_enospc_p);
    out.fs_rename_error_p =
        std::max(out.fs_rename_error_p, s.fs_rename_error_p);
    out.fs_crash_p = std::max(out.fs_crash_p, s.fs_crash_p);
    out.sock_reset_p = std::max(out.sock_reset_p, s.sock_reset_p);
    out.sock_stall_p = std::max(out.sock_stall_p, s.sock_stall_p);
    out.sock_short_write_p =
        std::max(out.sock_short_write_p, s.sock_short_write_p);
    out.sock_short_read_p =
        std::max(out.sock_short_read_p, s.sock_short_read_p);
    out.sock_torn_frame_p =
        std::max(out.sock_torn_frame_p, s.sock_torn_frame_p);
    out.sampler_error_at = std::max(out.sampler_error_at, s.sampler_error_at);
    out.sampler_hang_at = std::max(out.sampler_hang_at, s.sampler_hang_at);
    out.delivery_error_at =
        std::max(out.delivery_error_at, s.delivery_error_at);
    out.flush_error_at = std::max(out.flush_error_at, s.flush_error_at);
    out.fs_error_at = std::max(out.fs_error_at, s.fs_error_at);
    out.fs_short_write_at =
        std::max(out.fs_short_write_at, s.fs_short_write_at);
    out.fs_enospc_at = std::max(out.fs_enospc_at, s.fs_enospc_at);
    out.fs_rename_error_at =
        std::max(out.fs_rename_error_at, s.fs_rename_error_at);
    out.fs_crash_at = std::max(out.fs_crash_at, s.fs_crash_at);
    out.sock_reset_at = std::max(out.sock_reset_at, s.sock_reset_at);
    out.sock_stall_at = std::max(out.sock_stall_at, s.sock_stall_at);
    out.sock_short_write_at =
        std::max(out.sock_short_write_at, s.sock_short_write_at);
    out.sock_short_read_at =
        std::max(out.sock_short_read_at, s.sock_short_read_at);
    out.sock_torn_frame_at =
        std::max(out.sock_torn_frame_at, s.sock_torn_frame_at);
    out.sampler_hang_sticky |= s.sampler_hang_sticky;
  }
  return out;
}

void ChaosSchedule::arm(sim::EventQueue& events, core::TimePoint t0,
                        FaultPlan& plan, Hooks hooks) {
  for (std::size_t i = 0; i < scenario_.phases.size(); ++i) {
    const auto& phase = scenario_.phases[i];
    events.schedule_at(t0 + phase.start, [this, i, &plan,
                                          hooks](core::TimePoint now) {
      active_[i] = true;
      plan.set_spec(composed());
      if (hooks.phase_start) hooks.phase_start(scenario_.phases[i], now);
    });
    events.schedule_at(
        t0 + phase.start + phase.duration,
        [this, i, &plan, hooks](core::TimePoint now) {
          active_[i] = false;
          plan.set_spec(composed());
          if (hooks.phase_end) hooks.phase_end(scenario_.phases[i], now);
        });
  }
}

std::vector<const StormPhase*> ChaosSchedule::active_phases() const {
  std::vector<const StormPhase*> out;
  for (std::size_t i = 0; i < scenario_.phases.size(); ++i) {
    if (active_[i]) out.push_back(&scenario_.phases[i]);
  }
  return out;
}

std::uint32_t ChaosSchedule::active_log_events_per_tick() const {
  std::uint32_t out = 0;
  for (const auto* p : active_phases()) {
    out = std::max(out, p->log_events_per_tick);
  }
  return out;
}

std::uint32_t ChaosSchedule::active_bulk_batches_per_tick() const {
  std::uint32_t out = 0;
  for (const auto* p : active_phases()) {
    out = std::max(out, p->bulk_batches_per_tick);
  }
  return out;
}

std::vector<ChaosScenario> standard_storm_scenarios() {
  std::vector<ChaosScenario> out;

  // 1. Log storm: the Sec. IV-B console-forwarder meltdown. A burst of log
  // traffic rides alongside elevated delivery failures (the forwarder is
  // what is melting).
  {
    ChaosScenario s;
    s.name = "log_storm";
    s.seed = 0xCA05001;
    s.total = 40 * core::kMinute;
    StormPhase storm;
    storm.label = "log_burst";
    storm.start = 5 * core::kMinute;
    storm.duration = 15 * core::kMinute;
    storm.log_events_per_tick = 200;
    storm.spec.delivery_error_p = 0.10;
    s.phases.push_back(storm);
    out.push_back(std::move(s));
  }

  // 2. Sampler hang storm: probes wedge on dead mounts; the watchdog
  // deadline and breaker quarantine must carry the sweep.
  {
    ChaosScenario s;
    s.name = "sampler_hang_storm";
    s.seed = 0xCA05002;
    s.total = 40 * core::kMinute;
    StormPhase hang;
    hang.label = "probe_hangs";
    hang.start = 5 * core::kMinute;
    hang.duration = 12 * core::kMinute;
    hang.spec.sampler_hang_p = 0.08;
    hang.spec.sampler_error_p = 0.15;
    s.phases.push_back(hang);
    out.push_back(std::move(s));
  }

  // 3. WAL I/O storm: the durability device browns out (errors and torn
  // writes); critical data must still survive end to end.
  {
    ChaosScenario s;
    s.name = "wal_io_storm";
    s.seed = 0xCA05003;
    s.total = 40 * core::kMinute;
    StormPhase io;
    io.label = "wal_brownout";
    io.start = 5 * core::kMinute;
    io.duration = 10 * core::kMinute;
    io.spec.fs_error_p = 0.20;
    io.spec.fs_short_write_p = 0.05;
    s.phases.push_back(io);
    out.push_back(std::move(s));
  }

  // 4. Delivery storm: the downstream sink flaps hard; retries and the DLQ
  // absorb it, and the DLQ bound must hold.
  {
    ChaosScenario s;
    s.name = "delivery_storm";
    s.seed = 0xCA05004;
    s.total = 40 * core::kMinute;
    StormPhase d;
    d.label = "sink_flapping";
    d.start = 5 * core::kMinute;
    d.duration = 15 * core::kMinute;
    d.spec.delivery_error_p = 0.60;
    s.phases.push_back(d);
    out.push_back(std::move(s));
  }

  // 5. Queue saturation: a bulk-class ingest flood far beyond queue
  // capacity; the degradation ladder must shed bulk and keep critical
  // intact.
  {
    ChaosScenario s;
    s.name = "queue_saturation";
    s.seed = 0xCA05005;
    s.total = 45 * core::kMinute;
    StormPhase flood;
    flood.label = "bulk_flood";
    flood.start = 5 * core::kMinute;
    flood.duration = 15 * core::kMinute;
    flood.bulk_batches_per_tick = 50;
    s.phases.push_back(flood);
    out.push_back(std::move(s));
  }

  // 6. Kitchen sink: overlapping compound storm — the realistic incident.
  {
    ChaosScenario s;
    s.name = "kitchen_sink";
    s.seed = 0xCA05006;
    s.total = 60 * core::kMinute;
    StormPhase logs;
    logs.label = "log_burst";
    logs.start = 5 * core::kMinute;
    logs.duration = 20 * core::kMinute;
    logs.log_events_per_tick = 100;
    s.phases.push_back(logs);
    StormPhase flood;
    flood.label = "bulk_flood";
    flood.start = 10 * core::kMinute;
    flood.duration = 15 * core::kMinute;
    flood.bulk_batches_per_tick = 30;
    s.phases.push_back(flood);
    StormPhase faults;
    faults.label = "fault_pressure";
    faults.start = 12 * core::kMinute;
    faults.duration = 10 * core::kMinute;
    faults.spec.sampler_error_p = 0.10;
    faults.spec.sampler_hang_p = 0.03;
    faults.spec.fs_error_p = 0.05;
    faults.spec.delivery_error_p = 0.30;
    s.phases.push_back(faults);
    out.push_back(std::move(s));
  }

  // 7. Disk storm: the retention device dies in every way at once. Bulk
  // load keeps the compactor busy; a crash window kills filesystem ops at
  // random (torn WAL tails, dead mid-pass compactions); the whole stack is
  // then hard-crashed and rebuilt on the same WAL + tier directories; the
  // revived stack immediately faces an ENOSPC burst. Zero critical loss
  // across the restart and a return to NORMAL are the invariants.
  {
    ChaosScenario s;
    s.name = "disk_storm";
    s.seed = 0xCA05007;
    s.total = 45 * core::kMinute;
    s.config_overrides = {
        {"tier_dir", "auto"},          // harness substitutes a scratch dir
        {"compact_interval_s", "60"},  // compact every simulated minute
        {"tier_hot_window_s", "300"},  // age sealed chunks out aggressively
        {"chunk_points", "32"},        // seal fast so tiers actually fill
    };
    StormPhase load;
    load.label = "bulk_load";
    load.start = 1 * core::kMinute;
    load.duration = 30 * core::kMinute;
    load.bulk_batches_per_tick = 20;
    s.phases.push_back(load);
    StormPhase kill;
    kill.label = "fs_crash_window";
    kill.start = 8 * core::kMinute;
    kill.duration = 1 * core::kMinute;
    kill.spec.fs_crash_p = 0.05;
    s.phases.push_back(kill);
    // Hard restart after the crash window, with enough clean time first for
    // self-heal (WAL rotate + DLQ redelivery) to make everything durable.
    s.crash_restart_at = 12 * core::kMinute;
    StormPhase enospc;
    enospc.label = "enospc_burst";
    enospc.start = 14 * core::kMinute;
    enospc.duration = 8 * core::kMinute;
    enospc.spec.fs_enospc_p = 0.35;
    s.phases.push_back(enospc);
    out.push_back(std::move(s));
  }

  return out;
}

ChaosScenario network_storm_scenario() {
  // The wire between a node stack and its aggregator fails in every
  // injectable way at once, while an ingest storm keeps the relay queue
  // under pressure. Phases overlap so resets land on connections already
  // degraded by short reads/writes; a clean recovery window at the end lets
  // the relay drain, which is when the acked-watermark and byte-exact
  // invariants are checked.
  ChaosScenario s;
  s.name = "network_storm";
  s.seed = 0xCA05008;
  s.total = 30 * core::kMinute;
  StormPhase flood;
  flood.label = "bulk_flood";
  flood.start = 1 * core::kMinute;
  flood.duration = 18 * core::kMinute;
  flood.bulk_batches_per_tick = 10;
  s.phases.push_back(flood);
  StormPhase frag;
  frag.label = "fragmented_wire";  // benign fragmentation: reassembly only
  frag.start = 2 * core::kMinute;
  frag.duration = 16 * core::kMinute;
  frag.spec.sock_short_write_p = 0.10;
  frag.spec.sock_short_read_p = 0.10;
  s.phases.push_back(frag);
  StormPhase stall;
  stall.label = "latency_spikes";
  stall.start = 4 * core::kMinute;
  stall.duration = 10 * core::kMinute;
  stall.spec.sock_stall_p = 0.05;
  s.phases.push_back(stall);
  StormPhase tear;
  tear.label = "resets_and_torn_frames";  // every connection is suspect
  tear.start = 6 * core::kMinute;
  tear.duration = 8 * core::kMinute;
  tear.spec.sock_reset_p = 0.02;
  tear.spec.sock_torn_frame_p = 0.02;
  s.phases.push_back(tear);
  return s;
}

}  // namespace hpcmon::resilience
