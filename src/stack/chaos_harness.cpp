#include "stack/chaos_harness.hpp"

#include <algorithm>
#include <filesystem>

#include "core/config.hpp"
#include "core/strings.hpp"
#include "stack/stack.hpp"
#include "transport/codec.hpp"

namespace hpcmon::stack {

namespace {

sim::ClusterParams harness_cluster(std::uint64_t seed) {
  sim::ClusterParams p;
  p.shape.cabinets = 1;
  p.shape.chassis_per_cabinet = 2;
  p.shape.blades_per_chassis = 2;
  p.shape.nodes_per_blade = 4;
  p.shape.gpu_node_fraction = 0.25;
  p.tick = 5 * core::kSecond;
  p.seed = seed;
  return p;
}

/// The stack both storms land on: 2 drop-oldest ingest shards, a WAL in
/// `wal_dir`, and every sampler under a watchdog and a breaker. The real
/// deadline abandons injected hangs to watchdog threads (reclaimed by
/// release_hangs) instead of stalling the sweep.
core::Config harness_config(const std::string& wal_dir) {
  core::Config config;
  config.set("sample_interval_s", "30");
  config.set("log_interval_s", "15");
  config.set("probe_interval_s", "0");
  config.set("health_interval_s", "120");
  config.set("ingest_shards", "2");
  config.set("ingest_queue_cap", "64");
  config.set("ingest_policy", "drop_oldest");
  config.set("wal_path", wal_dir);
  config.set("sampler_deadline_ms", "50");
  config.set("breaker_threshold", "3");
  return config;
}

constexpr std::size_t kBulkSeries = 32;
constexpr std::size_t kDeadLetterCap = 32;

/// The load both storms publish: one critical heartbeat series, the
/// liveness proof, and kBulkSeries bulk flood series, all named under
/// `prefix` on one harness component.
struct StormLoad {
  core::ComponentId component;
  core::SeriesId heartbeat;
  std::vector<core::SeriesId> bulk;

  StormLoad(sim::Cluster& cluster, const std::string& prefix,
            const std::string& heartbeat_description) {
    auto& registry = cluster.registry();
    component = registry.register_component(
        {prefix + ".harness", core::ComponentKind::kService,
         cluster.topology().system()});
    heartbeat = registry.series(
        registry.register_metric({prefix + ".heartbeat", "beats",
                                  heartbeat_description, true,
                                  core::Priority::kCritical}),
        component);
    for (std::size_t i = 0; i < kBulkSeries; ++i) {
      const auto m = registry.register_metric(
          {prefix + ".bulk_flood." + std::to_string(i), "points",
           "synthetic bulk-class storm load", false, core::Priority::kBulk});
      bulk.push_back(registry.series(m, component));
    }
  }

  /// One tick at `t` through the full stack path: heartbeat number `beat`,
  /// then `flood` bulk batches, each striding every bulk series so queue
  /// pressure lands on both shards. Returns the heartbeat's ticket in the
  /// stack's `wal` (0 when nothing was posted).
  std::uint64_t publish(transport::EventRouter& router,
                        const resilience::WriteAheadLog* wal,
                        core::TimePoint t, std::uint64_t beat,
                        std::uint32_t flood) const {
    core::SampleBatch hb;
    hb.sweep_time = t;
    hb.origin = component;
    hb.samples.push_back({heartbeat, t, static_cast<double>(beat)});
    auto frame = transport::encode_samples(hb);
    frame.priority = core::Priority::kCritical;
    router.publish(frame);
    // The router posts on this thread, so the newest ticket is the beat's.
    const std::uint64_t ticket = wal != nullptr ? wal->last_ticket() : 0;
    for (std::uint32_t b = 0; b < flood; ++b) {
      core::SampleBatch batch;
      batch.sweep_time = t;
      batch.origin = component;
      for (const auto series : bulk) {
        batch.samples.push_back(
            {series, t + static_cast<core::Duration>(b),
             static_cast<double>(b)});
      }
      auto bulk_frame = transport::encode_samples(batch);
      bulk_frame.priority = core::Priority::kBulk;
      router.publish(bulk_frame);
    }
    return ticket;
  }
};

}  // namespace

std::string ChaosReport::to_string() const {
  return core::strformat(
      "chaos[%s] survived=%d hb=%llu/%llu crit_lost=%llu bulk_shed=%llu "
      "std_shed=%llu lost=%llu max_mode=%d transitions=%llu normal=%d "
      "dlq=%zu/%zu clean=%d%s%s%s",
      scenario.c_str(), survived ? 1 : 0,
      static_cast<unsigned long long>(heartbeats_stored),
      static_cast<unsigned long long>(heartbeats_sent),
      static_cast<unsigned long long>(critical_lost),
      static_cast<unsigned long long>(bulk_shed),
      static_cast<unsigned long long>(standard_shed),
      static_cast<unsigned long long>(involuntary_lost), max_mode,
      static_cast<unsigned long long>(transitions), returned_to_normal ? 1 : 0,
      dead_letters, dead_letter_cap, shutdown_clean ? 1 : 0,
      crash_undecided_records == 0
          ? ""
          : core::strformat(
                " crash_lag=%llu/%llu",
                static_cast<unsigned long long>(crash_undecided_records),
                static_cast<unsigned long long>(crash_undecided_heartbeats))
                .c_str(),
      failure.empty() ? "" : " FAIL: ", failure.c_str());
}

ChaosReport run_chaos(
    const resilience::ChaosScenario& scenario,
    const std::vector<std::pair<std::string, std::string>>& overrides) {
  ChaosReport report;
  report.scenario = scenario.name;
  report.dead_letter_cap = kDeadLetterCap;

  const std::string wal_dir = "/tmp/hpcmon_chaos_" + scenario.name;
  const std::string tier_dir = wal_dir + "_tiers";
  std::filesystem::remove_all(wal_dir);
  std::filesystem::remove_all(tier_dir);

  core::Config config = harness_config(wal_dir);
  config.set("dead_letter_cap", std::to_string(kDeadLetterCap));
  config.set("breaker_cooldown_s", "120");
  config.set("degradation", "1");
  config.set("degradation_interval_s", "30");
  for (const auto& [k, v] : scenario.config_overrides) config.set(k, v);
  for (const auto& [k, v] : overrides) config.set(k, v);
  // Scenarios ask for a tier ladder with the sentinel "auto"; the harness
  // owns the scratch directory so reruns start clean.
  if (config.get_string("tier_dir", "") == "auto") {
    config.set("tier_dir", tier_dir);
  }

  sim::Cluster cluster(harness_cluster(scenario.seed));
  resilience::FaultPlan plan(scenario.seed);
  auto stack = std::make_unique<MonitoringStack>(cluster, config, &plan);

  // After the storm every heartbeat (router -> WAL -> ingest) must be in
  // the store — byte-complete critical data.
  const StormLoad load(cluster, "chaos", "storm-mode liveness heartbeat");

  resilience::ChaosSchedule schedule(scenario);
  resilience::ChaosSchedule::Hooks hooks;
  // Log storms ride the cluster's own injection machinery so the storm
  // traffic is indistinguishable from a real console flood.
  hooks.phase_start = [&cluster](const resilience::StormPhase& phase,
                                 core::TimePoint now) {
    if (phase.log_events_per_tick > 0) {
      cluster.inject_log_storm(now, phase.duration,
                               static_cast<int>(phase.log_events_per_tick),
                               "chaos storm: " + phase.label);
    }
  };
  schedule.arm(cluster.events(), cluster.now(), plan, hooks);

  // Hard crash + restart mid-storm when the scenario scripts one: the stack
  // is destroyed the way a dead process dies (no drain, no flush — buffered
  // state abandoned) and a fresh stack recovers from the same WAL and tier
  // directories. Pre-crash obs counters are merged into the final snapshot
  // so the shedding ledger spans both incarnations. The crash lands at a
  // simulated instant seconds after the last publish, time in which the
  // WAL's writer thread has decided every posted frame; the simulation
  // reaches it in microseconds of real time, so the drill first lets the
  // writer catch up (sync), as that much real time would have, unless the
  // scenario asks it not to. Then the heartbeats the writer still held die
  // with the stack, and they are counted.
  obs::ObsSnapshot pre_crash;
  std::vector<std::uint64_t> beat_tickets;  // this incarnation's heartbeats
  if (scenario.crash_restart_at > 0) {
    cluster.events().schedule_at(
        cluster.now() + scenario.crash_restart_at, [&](core::TimePoint) {
          auto* wal = stack->wal_delivery();
          if (wal != nullptr && scenario.crash_syncs_wal) wal->sync();
          stack->simulate_crash();
          if (wal != nullptr) {
            // The writer has stopped: what it had not decided is gone.
            const auto decided = wal->decided_ticket();
            report.crash_undecided_records = wal->last_ticket() - decided;
            report.crash_undecided_heartbeats = static_cast<std::uint64_t>(
                std::count_if(beat_tickets.begin(), beat_tickets.end(),
                              [&](std::uint64_t t) { return t > decided; }));
          }
          beat_tickets.clear();
          pre_crash.merge(stack->obs_snapshot());
          plan.release_hangs();  // hung sampler threads must join
          stack.reset();
          stack = std::make_unique<MonitoringStack>(cluster, config, &plan);
        });
  }

  const auto tick = 10 * core::kSecond;
  cluster.events().schedule_every(
      cluster.now() + tick, tick, [&](core::TimePoint t) {
        beat_tickets.push_back(
            load.publish(stack->router(), stack->wal(), t,
                         report.heartbeats_sent++,
                         schedule.active_bulk_batches_per_tick()));
        // Track the controller's trajectory.
        if (const auto* d = stack->degradation()) {
          report.max_mode =
              std::max(report.max_mode, static_cast<int>(d->mode()));
        }
      });

  cluster.run_for(scenario.total);

  // Teardown in the only safe order: wake hung sampler threads, then drain
  // and stop the pipeline under a deadline.
  plan.release_hangs();
  const auto shutdown_report =
      stack->shutdown(std::chrono::milliseconds(10000));
  report.shutdown_clean = shutdown_report.clean();
  report.survived = true;

  // Assertions read the SAME obs snapshot the degradation loop and the
  // operator report consume — no bespoke accessors, no second set of books.
  // Counters from a pre-restart incarnation are merged in so voluntary
  // shedding before the crash still shows in the ledger.
  auto snap = stack->obs_snapshot();
  snap.merge(pre_crash);
  report.critical_lost = snap.counter("ingest.dropped_critical_samples") +
                         snap.counter("ingest.rejected_critical_samples");
  report.bulk_shed = snap.counter("ingest.shed_bulk_samples") +
                     snap.counter("ingest.dropped_bulk_samples") +
                     snap.counter("ingest.rejected_bulk_samples");
  report.standard_shed = snap.counter("ingest.shed_standard_samples");
  report.involuntary_lost = snap.counter("ingest.dropped_samples") +
                            snap.counter("ingest.rejected_samples");
  report.transitions = snap.counter("resilience.degradation.transitions");
  report.dead_letters = shutdown_report.dead_letters;
  if (const auto* d = stack->degradation()) {
    report.returned_to_normal = d->mode() == core::DegradationMode::kNormal;
  }
  // Byte-completeness spans the tier ladder: heartbeats compacted out of the
  // hot store before a crash live in tier files, and the span view reads
  // both sides (the hot store alone when the stack has no ladder).
  const core::TimeRange hb_window{0, cluster.now() + core::kHour};
  const store::TierSpanView<ingest::ShardedTimeSeriesStore> span(
      stack->tiers(), stack->sharded_store());
  report.heartbeats_stored = static_cast<std::uint64_t>(
      span.query_range(load.heartbeat, hb_window).size());

  // Invariants, in the order an operator would triage them.
  if (!report.shutdown_clean) {
    report.failure = "shutdown abandoned in-flight work";
  } else if (report.critical_lost != 0) {
    report.failure = "critical-class samples were dropped or rejected";
  } else if (report.heartbeats_stored !=
             report.heartbeats_sent - report.crash_undecided_heartbeats) {
    report.failure = core::strformat(
        "heartbeat gap: stored %llu of %llu",
        static_cast<unsigned long long>(report.heartbeats_stored),
        static_cast<unsigned long long>(report.heartbeats_sent -
                                        report.crash_undecided_heartbeats));
  } else if (report.dead_letters > report.dead_letter_cap) {
    report.failure = "dead-letter queue exceeded its bound";
  } else if (!report.returned_to_normal) {
    report.failure = "controller did not return to NORMAL in the recovery window";
  }
  return report;
}

std::string NetworkStormReport::to_string() const {
  return core::strformat(
      "netstorm[%s] survived=%d hb=%llu node=%llu upstream=%llu exact=%d "
      "acked=%llu resent=%llu rejected=%llu shed=%llu conns=%llu/%llu "
      "dup=%llu winrej=%llu unacked=%llu faults=%llu all_classes=%d%s%s",
      scenario.c_str(), survived ? 1 : 0,
      static_cast<unsigned long long>(heartbeats_sent),
      static_cast<unsigned long long>(node_heartbeats),
      static_cast<unsigned long long>(upstream_heartbeats),
      critical_byte_exact ? 1 : 0,
      static_cast<unsigned long long>(acked_batches),
      static_cast<unsigned long long>(resent_batches),
      static_cast<unsigned long long>(rejected_batches),
      static_cast<unsigned long long>(shed_batches),
      static_cast<unsigned long long>(connects),
      static_cast<unsigned long long>(disconnects),
      static_cast<unsigned long long>(duplicates),
      static_cast<unsigned long long>(window_rejects),
      static_cast<unsigned long long>(relay_unacked),
      static_cast<unsigned long long>(socket_faults),
      all_fault_classes ? 1 : 0, failure.empty() ? "" : " FAIL: ",
      failure.c_str());
}

NetworkStormReport run_network_storm(
    const resilience::ChaosScenario& scenario,
    const std::vector<std::pair<std::string, std::string>>& overrides) {
  NetworkStormReport report;
  report.scenario = scenario.name;

  const std::string node_wal =
      "/tmp/hpcmon_netstorm_" + scenario.name + "_node";
  std::filesystem::remove_all(node_wal);

  // ONE fault plan spans both stacks: the relay client's sends/recvs and the
  // aggregator reactor's recvs/sends draw from the same monotone socket-op
  // stream, so the storm hits both directions of the wire.
  resilience::FaultPlan plan(scenario.seed);

  // Aggregator: a plain synchronous stack whose only job is the serve tier's
  // relay ingest. Its sim event queue is NEVER run — no local collection, so
  // every stored sample arrived over the wire and the node's registry owns
  // every series id it holds.
  sim::Cluster agg_cluster(harness_cluster(scenario.seed + 1));
  core::Config agg_config;
  agg_config.set("serve_port", "0");
  agg_config.set("probe_interval_s", "0");
  agg_config.set("health_interval_s", "0");
  agg_config.set("rules", "false");
  agg_config.set("numeric_alerts", "false");
  MonitoringStack aggregator(agg_cluster, agg_config, &plan);

  // Node: the chaos-harness base stack plus the relay tier pointed at the
  // aggregator. Fast real-time backoff so reconnect storms resolve within
  // the test's wall clock; scenarios/overrides may re-pin any knob.
  sim::Cluster cluster(harness_cluster(scenario.seed));
  core::Config config = harness_config(node_wal);
  config.set("relay_upstream", std::to_string(aggregator.serve()->port()));
  config.set("relay_backoff_ms", "2");
  config.set("relay_backoff_max_ms", "50");
  config.set("relay_queue_cap", "512");
  for (const auto& [k, v] : scenario.config_overrides) config.set(k, v);
  for (const auto& [k, v] : overrides) config.set(k, v);
  MonitoringStack node(cluster, config, &plan);

  // The liveness proof, end to end across the wire: each heartbeat takes
  // the node's full path (router -> WAL -> ingest AND router -> relay ->
  // aggregator).
  const StormLoad load(cluster, "netstorm", "relay storm liveness heartbeat");

  resilience::ChaosSchedule schedule(scenario);
  schedule.arm(cluster.events(), cluster.now(), plan);

  const auto tick = 10 * core::kSecond;
  cluster.events().schedule_every(
      cluster.now() + tick, tick, [&](core::TimePoint t) {
        load.publish(node.router(), node.wal(), t, report.heartbeats_sent++,
                     schedule.active_bulk_batches_per_tick());
      });

  // The sim runs in slices with a real-time relay drain between them: the
  // relay worker (real threads, real sockets) makes progress WHILE each
  // phase's fault spec is armed, so every fault class actually lands on
  // live traffic instead of the whole storm flashing past in sim time.
  const core::Duration slice = 30 * core::kSecond;
  for (core::Duration at = 0; at < scenario.total; at += slice) {
    cluster.run_for(std::min(slice, scenario.total - at));
    node.relay()->drain_for(25);
  }

  plan.release_hangs();
  const auto node_shutdown = node.shutdown(std::chrono::milliseconds(20000));
  report.relay_unacked = node_shutdown.relay_unacked;
  const auto relay_stats = node.relay()->stats();
  const auto serve_stats = aggregator.serve()->stats();
  aggregator.shutdown();
  report.survived = true;

  report.acked_batches = relay_stats.acked_batches;
  report.resent_batches = relay_stats.resent_batches;
  report.rejected_batches = relay_stats.rejected_batches;
  report.shed_batches = relay_stats.shed_batches;
  report.connects = relay_stats.connects;
  report.disconnects = relay_stats.disconnects;
  report.duplicates = serve_stats.relay_duplicates;
  report.window_rejects = serve_stats.relay_window_rejects;

  const auto injected = plan.injected();
  report.socket_faults = injected.sock_resets + injected.sock_stalls +
                         injected.sock_short_writes +
                         injected.sock_short_reads +
                         injected.sock_torn_frames;
  report.all_fault_classes =
      injected.sock_resets > 0 && injected.sock_stalls > 0 &&
      injected.sock_short_writes > 0 && injected.sock_short_reads > 0 &&
      injected.sock_torn_frames > 0;

  // Byte-exactness of the critical series: the aggregator must hold exactly
  // the heartbeat points the node stored — same count, same timestamps, same
  // values. The aggregator's strictly-increasing-timestamp append is the
  // second dedupe layer, so at-least-once resends cannot double a point.
  const core::TimeRange hb_window{0, cluster.now() + core::kHour};
  const auto node_points =
      node.sharded_store()->query_range(load.heartbeat, hb_window);
  const auto upstream_points =
      aggregator.sharded_store()->query_range(load.heartbeat, hb_window);
  report.node_heartbeats = static_cast<std::uint64_t>(node_points.size());
  report.upstream_heartbeats =
      static_cast<std::uint64_t>(upstream_points.size());
  report.critical_byte_exact =
      node_points.size() == upstream_points.size() &&
      std::equal(node_points.begin(), node_points.end(),
                 upstream_points.begin(),
                 [](const core::TimedValue& a, const core::TimedValue& b) {
                   return a.time == b.time && a.value == b.value;
                 });

  if (report.node_heartbeats != report.heartbeats_sent) {
    report.failure = core::strformat(
        "node-side heartbeat gap: stored %llu of %llu",
        static_cast<unsigned long long>(report.node_heartbeats),
        static_cast<unsigned long long>(report.heartbeats_sent));
  } else if (report.relay_unacked != 0) {
    report.failure = "relay queue did not drain to acked within the deadline";
  } else if (report.rejected_batches != 0) {
    report.failure = "server refused relay payloads (poison-pill drops)";
  } else if (!report.critical_byte_exact) {
    report.failure = core::strformat(
        "critical series not byte-exact upstream: %llu of %llu points",
        static_cast<unsigned long long>(report.upstream_heartbeats),
        static_cast<unsigned long long>(report.node_heartbeats));
  } else if (report.socket_faults == 0) {
    report.failure = "storm injected no socket faults (harness no-op)";
  } else if (!report.all_fault_classes) {
    report.failure = "a socket fault class never fired during the storm";
  } else if (report.connects < 2) {
    report.failure = "relay never reconnected (resets did not bite)";
  }
  return report;
}

}  // namespace hpcmon::stack
