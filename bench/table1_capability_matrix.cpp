// Table I: "Needs and Requirements for Monitoring" — exercised end-to-end.
//
// Each requirement row from the paper's Table I is mapped to the hpcmon API
// that satisfies it and exercised on a live monitored cluster. The output is
// the reproduction of Table I: requirement -> evidence -> PASS/FAIL.
#include "bench_common.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>

#include "analysis/correlate.hpp"
#include "analysis/rules.hpp"
#include "collect/probes.hpp"
#include "response/actions.hpp"
#include "response/alerts.hpp"
#include "store/compactor.hpp"
#include "store/tier.hpp"
#include "viz/dashboard.hpp"
#include "viz/query.hpp"

namespace hpcmon::bench {
namespace {

void row(const char* section, const char* requirement, bool ok,
         const std::string& evidence) {
  std::printf("%-12s | %-52s | %s\n", section, requirement,
              (std::string(ok ? "PASS" : "FAIL") + " - " + evidence).c_str());
  shape_check(ok, std::string(section) + ": " + requirement);
}

sim::ClusterParams machine() {
  sim::ClusterParams p;
  p.shape.cabinets = 2;
  p.shape.chassis_per_cabinet = 2;
  p.shape.blades_per_chassis = 4;
  p.shape.nodes_per_blade = 4;
  p.shape.gpu_node_fraction = 0.25;
  p.fabric_kind = sim::FabricKind::kDragonfly;
  p.tick = 5 * core::kSecond;
  p.seed = 123;
  return p;
}

}  // namespace
}  // namespace hpcmon::bench

int main() {
  using namespace hpcmon;
  using namespace hpcmon::bench;

  header("Table I: needs and requirements for monitoring — capability matrix",
         "Ahlgren et al. 2018, Table I");

  MonitoredCluster mc(machine(), 30 * core::kSecond);
  collect::ProbeConfig pc;
  pc.probe_nodes = {0, 4};
  mc.collection.add_sampler(
      std::make_unique<collect::ProbeSuite>(mc.cluster, pc, core::Rng(9)),
      2 * core::kMinute, collect::store_sink(mc.tsdb));
  sim::WorkloadParams w;
  w.mean_interarrival = 45 * core::kSecond;
  w.max_nodes = 16;
  mc.cluster.start_workload(w);
  mc.cluster.inject_ost_slowdown(20 * core::kMinute, 0, 1, 5.0,
                                 10 * core::kMinute);
  mc.cluster.inject_link_down(22 * core::kMinute, 0, 10 * core::kMinute);
  mc.cluster.run_for(45 * core::kMinute);

  auto& reg = mc.cluster.registry();
  const auto now = mc.cluster.now();
  std::printf("%-12s | %-52s | result\n", "section", "requirement");
  std::printf("%s\n", std::string(100, '-').c_str());

  // ---- Architecture ---------------------------------------------------------
  {
    const auto rs = obs::snapshot_of(mc.router);
    const auto frames = rs.counter("transport.frames");
    row("Architecture", "raw data at maximum fidelity, documented interface",
        frames > 50 && rs.counter("transport.unrouted_frames") == 0,
        core::strformat("%llu frames routed losslessly, binary codec documented",
                        static_cast<unsigned long long>(frames)));
  }
  {
    // Multiple consumers: two more subscribers on the live router, beside
    // the store's. The router keeps them, so they count through shared state.
    auto admin = std::make_shared<std::size_t>(0);
    auto user = std::make_shared<std::size_t>(0);
    mc.router.subscribe(transport::FrameType::kSamples,
                        [admin](const transport::Frame&) { ++*admin; });
    mc.router.subscribe(transport::FrameType::kSamples,
                        [user](const transport::Frame& f) {
                          if (transport::decode_samples(f).is_ok()) ++*user;
                        });
    mc.cluster.run_for(30 * core::kSecond);  // one sweep
    row("Architecture", "data and results to multiple consumers",
        *admin > 0 && *user == *admin,
        core::strformat("two added router subscribers each got all %zu "
                        "sample frames of a sweep",
                        *admin));
  }
  {
    // Integrate non-platform data: register a weather-station metric and
    // store it alongside platform data.
    const auto ext = reg.register_component(
        {"weather.station", core::ComponentKind::kFacility,
         mc.cluster.topology().system()});
    const auto sid = reg.series(
        reg.register_metric({"external.outdoor_temp_c", "degC",
                             "site weather-station outdoor temperature",
                             false}),
        ext);
    const bool ok = mc.tsdb.append(sid, now, 31.5);
    row("Architecture", "integrate data beyond the platform",
        ok && mc.tsdb.latest(sid).has_value(),
        "weather-station series stored next to platform telemetry");
  }
  {
    // Flexible data paths: re-route a sampler's output at runtime by adding
    // a forwarding edge to a second router.
    transport::EventRouter downstream;
    std::size_t forwarded = 0;
    downstream.subscribe_raw(
        [&](const transport::Frame&) { ++forwarded; });
    mc.router.forward_to(downstream);
    mc.cluster.run_for(2 * core::kMinute);
    row("Architecture", "flexible, reconfigurable data paths",
        forwarded > 0,
        core::strformat("forwarding edge added live; %zu frames followed it",
                        forwarded));
  }

  // ---- Data sources ---------------------------------------------------------
  {
    const auto dict = reg.describe_all();
    const bool has_all =
        dict.find("node.cpu_util") != std::string::npos &&
        dict.find("hsn.link.stalls") != std::string::npos &&
        dict.find("fs.ost.latency_ms") != std::string::npos &&
        dict.find("power.cabinet_w") != std::string::npos &&
        dict.find("gpu.health") != std::string::npos &&
        dict.find("facility.corrosion_ppb") != std::string::npos &&
        dict.find("probe.dgemm_seconds") != std::string::npos &&
        dict.find("sched.queue_depth") != std::string::npos;
    row("DataSources", "all subsystems exposed: text, numeric, test results",
        has_all, core::strformat("%zu documented metric families over %zu "
                                 "components",
                                 reg.metric_count(), reg.component_count()));
  }
  {
    const bool no_undocumented =
        reg.describe_all().find("(undocumented)") == std::string::npos;
    row("DataSources", "meaning of all raw data provided", no_undocumented,
        "every registered metric carries units and a description");
  }

  // ---- Data storage and formats ----------------------------------------------
  {
    // Copy the collected power series into a 16-point-chunk hot store, then
    // one compaction pass half a day later ages every sealed chunk into the
    // journaled tier directory and evicts it from memory.
    const auto sid = reg.series("power.system_w", mc.cluster.topology().system());
    const auto raw = mc.tsdb.query_range(sid, {0, now});
    const std::string dir = "/tmp/hpcmon_capability_tiers";
    std::filesystem::remove_all(dir);
    store::TierStore::Options opts;
    opts.dir = dir;
    {
      store::TimeSeriesStore hot(/*chunk_points=*/16);
      for (const auto& p : raw) hot.append(sid, p.time, p.value);
      store::TierStore tiers(opts);
      store::CompactorOptions co;
      co.hot_window = 10 * core::kMinute;
      store::Compactor compactor({&hot}, &tiers, co);
      const bool compacted = tiers.open().is_ok() &&
                             compactor.run_pass(now + core::kDay / 2).is_ok();
      const store::TierSpanView<store::TimeSeriesStore> span(&tiers, &hot);
      const auto full = span.query_range(sid, {0, now});
      const auto in_memory = hot.stats().points;
      row("Storage", "keep all data; historical with current",
          compacted && in_memory < raw.size() && full == raw,
          core::strformat("all %zu raw points answered with %zu aged out of "
                          "memory into tier files",
                          full.size(), raw.size() - in_memory));
    }
    // Locate and reload: a fresh TierStore on the same directory answers the
    // aged history from the tier files alone.
    store::TierStore reopened(opts);
    const bool reopened_ok = reopened.open().is_ok();
    const auto cold =
        store::TierSpanView<store::TimeSeriesStore>(&reopened, nullptr)
            .query_range(sid, {0, now});
    row("Storage", "hierarchical tiers with locate-and-reload",
        reopened_ok && !cold.empty() && cold.size() <= raw.size() &&
            std::equal(cold.begin(), cold.end(), raw.begin()),
        core::strformat("tier directory reopened: %zu files, %zu raw points "
                        "reloaded",
                        reopened.file_count(), cold.size()));
    std::filesystem::remove_all(dir);
  }
  {
    // Analysis results stored with raw data.
    const auto derived = reg.series(
        reg.register_metric({"derived.power_system_mean_w", "W",
                             "hourly mean of power.system_w (analysis result)",
                             false}),
        mc.cluster.topology().system());
    const bool ok = mc.tsdb.append(derived, now, 12345.0);
    row("Storage", "analysis results stored with raw data", ok,
        "derived metric appended to the same store");
  }

  // ---- Analysis and visualization ---------------------------------------------
  {
    // Concurrent conditions on disparate components: the OST slowdown and
    // the link-down fault overlap in time.
    std::vector<analysis::ConditionInterval> conds;
    for (const auto& f : mc.cluster.fault_log()) {
      const auto comp = reg.find_component(f.target);
      conds.push_back({comp.value_or(core::kNoComponent),
                       {f.start, f.start + f.duration},
                       f.kind});
    }
    const auto concurrent = analysis::find_concurrent(conds, 2);
    row("Analysis", "concurrent conditions on disparate components",
        !concurrent.empty(),
        concurrent.empty()
            ? "none found"
            : core::strformat("found %zu overlap group(s), e.g. %s + %s",
                              concurrent.size(),
                              concurrent[0].labels[0].c_str(),
                              concurrent[0].labels[1].c_str()));
  }
  {
    // Arbitrary extractions/computations at the store.
    std::vector<core::ComponentId> nodes;
    for (int i = 0; i < mc.cluster.topology().num_nodes(); ++i) {
      nodes.push_back(mc.cluster.topology().node(i));
    }
    const auto frac = viz::fraction_in_state(
        mc.tsdb, reg, "node.cpu_util", nodes, {0, now},
        [](double v) { return v > 0.5; });
    row("Analysis", "store supports arbitrary extraction/computation",
        !frac.empty(), "percent-of-nodes-busy computed over the store");
  }
  {
    // Live dashboards + high-dimensional handling via aggregation.
    viz::Dashboard dash("capability");
    std::vector<core::ComponentId> cabs;
    for (int c = 0; c < mc.cluster.topology().num_cabinets(); ++c) {
      cabs.push_back(mc.cluster.topology().cabinet(c));
    }
    dash.add_panel("cabinet power", [&]() {
      std::vector<viz::ChartSeries> out;
      for (const auto cab : cabs) {
        viz::ChartSeries s;
        s.label = reg.component(cab).name;
        s.points = mc.tsdb.query_range(
            reg.series("power.cabinet_w", cab), {0, now});
        out.push_back(std::move(s));
      }
      return out;
    });
    const auto rendered = dash.render();
    row("Analysis", "easy development of live data dashboards",
        rendered.find("cabinet power") != std::string::npos &&
            !dash.panel_csv(0).empty(),
        "dashboard panel rendered with CSV download");
  }

  // ---- Response ----------------------------------------------------------------
  {
    response::AlertManager alerts;
    response::ActionDispatcher actions;
    int notified = 0;
    actions.bind("*", response::AlertSeverity::kWarning, "notify",
                 [&](const response::Alert&) { ++notified; });
    alerts.add_sink([&](const response::Alert& a) { actions.dispatch(a); });
    analysis::RuleEngine rules;
    for (auto& r : analysis::standard_platform_rules()) {
      rules.add_rule(std::move(r));
    }
    std::size_t fired = 0;
    store::LogQuery q;
    q.range = {0, now};
    for (const auto& e : mc.logs.query(q)) {
      for (const auto& m : rules.process(e)) {
        ++fired;
        alerts.raise({m.time, response::AlertSeverity::kWarning, m.rule_name,
                      m.component, m.detail});
      }
    }
    row("Response", "configurable reporting/alerting at arbitrary points",
        fired > 0 && notified > 0,
        core::strformat("%zu rule matches -> %llu alerts -> %d actions",
                        fired,
                        static_cast<unsigned long long>(alerts.delivered_total()),
                        notified));
    row("Response", "results exposed to system software",
        [&] {
          // Expose an analysis result to the scheduler: quarantine node 1.
          mc.cluster.scheduler().set_node_available(1, false);
          const bool off = !mc.cluster.scheduler().node_available(1);
          mc.cluster.scheduler().set_node_available(1, true);
          return off;
        }(),
        "scheduler consumed a monitoring-driven availability decision");
  }

  std::printf("\n");
  return finish();
}
