#include "stack/stack.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>

namespace hpcmon::stack {
namespace {

namespace fs = std::filesystem;

sim::ClusterParams cluster_params() {
  sim::ClusterParams p;
  p.shape.cabinets = 2;
  p.shape.chassis_per_cabinet = 2;
  p.shape.blades_per_chassis = 4;
  p.shape.nodes_per_blade = 4;
  p.shape.gpu_node_fraction = 0.25;
  p.tick = 5 * core::kSecond;
  p.seed = 61;
  return p;
}

core::Config parse(const char* text) {
  auto r = core::Config::parse(text);
  EXPECT_TRUE(r.is_ok());
  return r.value();
}

TEST(StackTest, DefaultConfigCollectsEverything) {
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(cluster, core::Config{});
  sim::WorkloadParams w;
  w.mean_interarrival = core::kMinute;
  w.max_nodes = 8;
  cluster.start_workload(w);
  cluster.run_for(30 * core::kMinute);

  const auto st = stack.sharded_store()->stats();
  EXPECT_GT(st.points, 1000u);
  EXPECT_GT(stack.logs().size(), 5u);
  EXPECT_GT(stack.jobs().size(), 3u);
  EXPECT_GT(stack.obs_snapshot().counter("transport.frames"), 30u);
  // Probe + health samplers installed by default.
  EXPECT_TRUE(cluster.registry().find_metric("probe.dgemm_seconds"));
  EXPECT_TRUE(cluster.registry().find_metric("health.ok"));
  EXPECT_NE(stack.status().find("series="), std::string::npos);
  // Read-path self-metrics surface as store.* counters, and querying moves
  // them (rules/detectors already query during collection, so just verify
  // the counter is live and reported).
  const auto queries0 = stack.obs_snapshot().counter("store.queries");
  (void)stack.sharded_store()->query_range(
      cluster.registry().series("node.cpu_load", cluster.topology().node(0)),
      {0, core::kDay});
  EXPECT_GT(stack.obs_snapshot().counter("store.queries"), queries0);
  EXPECT_NE(stack.status().find("store.queries="), std::string::npos);
  EXPECT_NE(stack.status().find("store.cache_hits="), std::string::npos);
}

TEST(StackTest, ConfigDisablesOptionalStages) {
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(cluster, parse(R"(
      probe_interval_s = 0
      health_interval_s = 0
      rules = false
  )"));
  cluster.run_for(15 * core::kMinute);
  EXPECT_FALSE(cluster.registry().find_metric("probe.dgemm_seconds"));
  EXPECT_FALSE(cluster.registry().find_metric("health.ok"));
  EXPECT_EQ(stack.rules().rule_count(), 0u);
}

TEST(StackTest, SampleIntervalIsRespected) {
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(cluster, parse("sample_interval_s = 30\n"));
  cluster.run_for(10 * core::kMinute);
  const auto sid = cluster.registry().series("power.system_w",
                                             cluster.topology().system());
  const auto pts = stack.sharded_store()->query_range(sid, {0, cluster.now()});
  ASSERT_GE(pts.size(), 19u);  // 10 min / 30 s
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_EQ(pts[i].time - pts[i - 1].time, 30 * core::kSecond);
  }
}

TEST(StackTest, RulesRaiseAlertsAndActionsFire) {
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(cluster, parse(R"(
      quarantine_on_hw_critical = true
      gate_repair_s = 600
  )"));
  cluster.inject_gpu_failure(2 * core::kMinute, 1);
  cluster.run_for(10 * core::kMinute);
  bool hw = false;
  for (const auto& a : stack.alerts().active()) {
    if (a.key == "hw_critical") hw = true;
  }
  EXPECT_TRUE(hw);
  ASSERT_FALSE(stack.actions().log().empty());
  EXPECT_EQ(stack.actions().log()[0].action, "quarantine");
}

TEST(StackTest, NoveltyPipelineCollectsReports) {
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(cluster, parse(R"(
      novelty = true
      novelty_training_s = 600
  )"));
  cluster.run_for(15 * core::kMinute);
  cluster.emit_log({cluster.now(), cluster.now(), cluster.topology().node(0),
                    core::LogFacility::kConsole, core::Severity::kError,
                    core::kNoJob, "xyzzy: completely novel failure mode"});
  cluster.run_for(core::kMinute);
  bool found = false;
  for (const auto& n : stack.novelty_reports()) {
    if (n.tmpl.find("xyzzy") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(StackTest, GateInstalledFromConfig) {
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(cluster, parse("gate_pre = true\n"));
  ASSERT_NE(stack.gate_stats(), nullptr);
  cluster.inject_gpu_failure(core::kSecond, 0);
  sim::JobRequest req;
  req.num_nodes = 8;
  req.nominal_runtime = core::kMinute;
  req.profile = sim::app_compute_bound();
  cluster.submit_at(5 * core::kSecond, req);
  cluster.run_for(5 * core::kMinute);
  EXPECT_GT(stack.gate_stats()->pre_checks, 0u);
  EXPECT_EQ(stack.gate_stats()->pre_failures, 1u);
}

std::string tier_config(const std::string& dir) {
  return "tier_dir = " + dir +
         "\ntier_hot_window_s = 1800\nsample_interval_s = 30\n"
         "chunk_points = 32\n";
}

// Locate and reload: scheduled compaction spills sealed history into the
// tier directory, and a TierStore opened on that directory after the stack
// is gone answers the oldest part of the history the live stack served.
TEST(StackTest, TierDirSpillsToFilesAndReloads) {
  const std::string dir = "/tmp/hpcmon_stack_tier_spill_test";
  fs::remove_all(dir);
  sim::Cluster cluster(cluster_params());
  const auto sid = cluster.registry().series("power.system_w",
                                             cluster.topology().system());
  const core::TimeRange all{0, 4 * core::kHour};
  std::vector<core::TimedValue> live;
  {
    auto stack = std::make_unique<MonitoringStack>(
        cluster, parse(tier_config(dir).c_str()));
    cluster.run_for(3 * core::kHour);
    ASSERT_NE(stack->tiers(), nullptr);
    EXPECT_GT(stack->tiers()->file_count(), 0u);
    live = store::TierSpanView<ingest::ShardedTimeSeriesStore>(
               stack->tiers(), stack->sharded_store())
               .query_range(sid, all);
  }
  store::TierStore::Options opts;
  opts.dir = dir;
  store::TierStore reopened(opts);
  ASSERT_TRUE(reopened.open().is_ok());
  const auto cold = store::TierSpanView<ingest::ShardedTimeSeriesStore>(
                        &reopened, nullptr)
                        .query_range(sid, all);
  ASSERT_FALSE(cold.empty());
  ASSERT_LT(cold.size(), live.size());
  EXPECT_TRUE(std::equal(cold.begin(), cold.end(), live.begin()));
  fs::remove_all(dir);
}

TEST(StackTest, NumericAlertsFireOnInjectedConditions) {
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(cluster, parse("sample_interval_s = 30\n"));
  cluster.inject_corrosion_excursion(5 * core::kMinute, 30.0, core::kHour);
  cluster.inject_mem_leak(5 * core::kMinute, 2, 600.0, 2 * core::kHour);
  cluster.run_for(90 * core::kMinute);
  bool corrosion = false;
  bool low_mem = false;
  for (const auto& a : stack.alerts().active()) {
    if (a.key == "facility.corrosion") corrosion = true;
    if (a.key == "node.low_memory" &&
        a.component == cluster.topology().node(2)) {
      low_mem = true;
    }
  }
  EXPECT_TRUE(corrosion);
  EXPECT_TRUE(low_mem);
}

TEST(StackTest, NumericAlertsCanBeDisabled) {
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(cluster, parse("numeric_alerts = false\n"));
  cluster.inject_corrosion_excursion(core::kMinute, 30.0, core::kHour);
  cluster.run_for(30 * core::kMinute);
  for (const auto& a : stack.alerts().active()) {
    EXPECT_NE(a.key, "facility.corrosion");
  }
}

// Retention has one owner: the hourly compaction schedule tiers sealed
// chunks older than tier_hot_window_s and evicts them from the hot store,
// while full-fidelity history stays queryable across hot + tiers.
TEST(StackTest, CompactionScheduleTiersAndEvicts) {
  const std::string dir = "/tmp/hpcmon_stack_tier_schedule_test";
  fs::remove_all(dir);
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(cluster, parse(tier_config(dir).c_str()));
  cluster.run_for(3 * core::kHour);  // hourly compaction fires
  ASSERT_NE(stack.tiers(), nullptr);
  EXPECT_GT(stack.obs_snapshot().counter("compact.chunks_compacted"), 0u);
  const auto sid = cluster.registry().series("power.system_w",
                                             cluster.topology().system());
  const core::TimeRange all{0, cluster.now() + core::kSecond};
  const auto hot = stack.sharded_store()->query_range(sid, all);
  const auto full = store::TierSpanView<ingest::ShardedTimeSeriesStore>(
                        stack.tiers(), stack.sharded_store())
                        .query_range(sid, all);
  EXPECT_LT(hot.size(), full.size());  // the oldest chunks left memory
  EXPECT_GT(full.size(), 300u);        // 3 h at 30 s, nothing lost
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hpcmon::stack
