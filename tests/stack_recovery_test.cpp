// End-to-end resilience: crash recovery from the WAL (hot tier restored
// byte-identical to an uninterrupted run), shutdown draining the ingest
// tier, WAL truncation behind the tier watermark, and the operator surface
// for all of it.
#include "stack/stack.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "resilience/fault.hpp"

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

core::Config parse(const std::string& text) {
  auto r = core::Config::parse(text);
  EXPECT_TRUE(r.is_ok());
  return r.value();
}

std::string fresh_wal_dir(const std::string& name) {
  const std::string dir = "/tmp/hpcmon_recovery_test_" + name;
  fs::remove_all(dir);
  return dir;
}

// The acceptance drill: run a stack with a WAL, crash it mid-flight (no
// retention flush, no orderly shutdown), restart on the same WAL directory,
// and verify the recovered hot tier answers every query byte-identically to
// a reference stack that never crashed.
TEST(StackRecoveryTest, CrashRecoveryRestoresHotTierByteIdentical) {
  const auto wal_dir = fresh_wal_dir("crash");
  const std::string cfg = "sample_interval_s = 30\nwal_path = " + wal_dir + "\n";
  constexpr auto kRunTime = 40 * core::kMinute;  // < first retention pass

  // Reference: identical cluster seed, no WAL, uninterrupted.
  sim::Cluster ref_cluster(cluster_params());
  MonitoringStack ref(ref_cluster, parse("sample_interval_s = 30\n"));
  ref_cluster.run_for(kRunTime);

  // Victim: same deterministic cluster, WAL enabled, then a hard crash.
  sim::Cluster cluster(cluster_params());
  std::uint64_t walled_records = 0;
  {
    auto stack = std::make_unique<MonitoringStack>(cluster, parse(cfg));
    cluster.run_for(kRunTime);
    ASSERT_NE(stack->wal(), nullptr);
    const auto snap = stack->obs_snapshot();
    EXPECT_GT(snap.counter("resilience.wal_records"), 0u);
    EXPECT_EQ(snap.counter("resilience.wal_append_failures"), 0u);
    walled_records = snap.counter("resilience.wal_records");
    stack->simulate_crash();  // destructor skips shutdown(): hot tier lost
  }

  // Restart on the same WAL directory: construction replays every record.
  // (No run_for after this point: the comparison is pure recovery.)
  MonitoringStack recovered(cluster, parse(cfg));
  EXPECT_EQ(recovered.replay_stats().records, walled_records);
  EXPECT_GT(recovered.replay_stats().samples, 0u);
  EXPECT_EQ(recovered.replay_stats().corrupt_skipped, 0u);
  EXPECT_EQ(recovered.replay_stats().bad_segments, 0u);

  // Every series the reference collected must answer identically from the
  // recovered store. SeriesIds can differ across the two registries (the
  // WAL run interns resilience.* metrics), so map through metric name +
  // component, which are stable.
  auto& ref_reg = ref_cluster.registry();
  auto& reg = cluster.registry();
  const core::TimeRange all{0, ref_cluster.now() + core::kSecond};
  std::size_t compared = 0;
  std::size_t nonempty = 0;
  for (std::uint32_t i = 0; i < ref_reg.series_count(); ++i) {
    const auto ref_sid = core::SeriesId{i};
    const auto& metric = ref_reg.metric(ref_reg.series_metric(ref_sid));
    const auto sid = reg.series(metric.name, ref_reg.series_component(ref_sid));
    const auto want = ref.sharded_store()->query_range(ref_sid, all);
    const auto got = recovered.sharded_store()->query_range(sid, all);
    EXPECT_EQ(got, want) << "series " << ref_reg.series_name(ref_sid);
    ++compared;
    if (!want.empty()) ++nonempty;
  }
  EXPECT_GT(compared, 100u);  // the sweep really covers the whole system
  EXPECT_GT(nonempty, 50u);
  fs::remove_all(wal_dir);
}

// Crash vs. clean shutdown: without the WAL the hot tier dies with the
// process; with it, nothing already acknowledged is lost.
TEST(StackRecoveryTest, WithoutWalACrashLosesTheHotTier) {
  sim::Cluster cluster(cluster_params());
  {
    auto stack = std::make_unique<MonitoringStack>(cluster, core::Config{});
    cluster.run_for(10 * core::kMinute);
    EXPECT_GT(stack->sharded_store()->stats().points, 0u);
    stack->simulate_crash();
  }
  MonitoringStack after(cluster, core::Config{});
  EXPECT_EQ(after.replay_stats().records, 0u);
  EXPECT_EQ(after.sharded_store()->stats().points, 0u);
}

TEST(StackRecoveryTest, ShutdownDrainsIngestBeforeTeardown) {
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(cluster, parse(R"(
      sample_interval_s = 30
      ingest_shards = 2
      ingest_policy = block
  )"));
  cluster.run_for(20 * core::kMinute);
  stack.shutdown();

  ASSERT_NE(stack.ingest_pipeline(), nullptr);
  const auto snap = stack.obs_snapshot();
  const auto accepted = snap.counter("ingest.accepted_samples");
  EXPECT_GT(snap.counter("ingest.submitted_samples"), 0u);
  // Everything submitted was appended (or rejected as out-of-order) — no
  // sample stranded in a shard queue when the workers stopped.
  EXPECT_EQ(snap.counter("ingest.submitted_samples"),
            accepted + snap.counter("ingest.out_of_order_samples"));
  EXPECT_EQ(snap.counter("ingest.dropped_samples"), 0u);
  ASSERT_NE(stack.sharded_store(), nullptr);
  EXPECT_EQ(stack.sharded_store()->stats().points, accepted);
  // shutdown() is idempotent.
  stack.shutdown();
}

// Compaction truncates the WAL behind the tier watermark, and never ahead
// of it: a stack recovered from the surviving WAL segments plus the tier
// directory answers exactly what the live stack answered before the crash.
TEST(StackRecoveryTest, WalTruncatesOnlyBehindTheTierWatermark) {
  const auto wal_dir = fresh_wal_dir("truncate");
  const auto tier_dir = fresh_wal_dir("truncate_tiers");
  // Probes and health off: their 10-minute cadence would keep open heads
  // (and so the watermark) pinned near the start of the run.
  const std::string cfg =
      "sample_interval_s = 30\nchunk_points = 32\nprobe_interval_s = 0\n"
      "health_interval_s = 0\ntier_hot_window_s = 1800\n"
      "compact_interval_s = 1200\nwal_segment_bytes = 4096\n"
      "wal_path = " + wal_dir + "\ntier_dir = " + tier_dir + "\n";
  sim::Cluster cluster(cluster_params());
  auto& reg = cluster.registry();
  const core::TimeRange all{0, 4 * core::kHour};
  // Every 7th collected series; hpcmon.self.* is re-ingested by the stack
  // itself rather than logged, so it is not recoverable from the WAL.
  std::vector<core::SeriesId> sample;
  std::vector<std::vector<core::TimedValue>> want;
  {
    auto stack = std::make_unique<MonitoringStack>(cluster, parse(cfg));
    cluster.run_for(3 * core::kHour);
    ASSERT_NE(stack->wal(), nullptr);
    ASSERT_NE(stack->tiers(), nullptr);
    // Small segments rotated often; those wholly behind the watermark went.
    const auto snap = stack->obs_snapshot();
    EXPECT_GT(snap.counter("resilience.wal_segments_created"), 2u);
    EXPECT_GT(snap.counter("resilience.wal_segments_truncated"), 0u);
    const store::TierSpanView<ingest::ShardedTimeSeriesStore> live(
        stack->tiers(), stack->sharded_store());
    for (std::uint32_t i = 0; i < reg.series_count(); i += 7) {
      const core::SeriesId sid{i};
      if (reg.metric(reg.series_metric(sid)).name.starts_with("hpcmon.self.")) {
        continue;
      }
      sample.push_back(sid);
      want.push_back(live.query_range(sid, all));
    }
    stack->simulate_crash();
  }

  MonitoringStack recovered(cluster, parse(cfg));
  ASSERT_NE(recovered.tiers(), nullptr);
  const store::TierSpanView<ingest::ShardedTimeSeriesStore> span(
      recovered.tiers(), recovered.sharded_store());
  std::size_t nonempty = 0;
  for (std::size_t k = 0; k < sample.size(); ++k) {
    EXPECT_EQ(span.query_range(sample[k], all), want[k])
        << "series " << reg.series_name(sample[k]);
    if (!want[k].empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, 20u);
  fs::remove_all(wal_dir);
  fs::remove_all(tier_dir);
}

TEST(StackRecoveryTest, SupervisedStackCollectsNormally) {
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(cluster, parse(R"(
      sample_interval_s = 30
      breaker_threshold = 3
  )"));
  cluster.run_for(10 * core::kMinute);
  ASSERT_FALSE(stack.supervised_samplers().empty());
  const auto sup = stack.obs_snapshot();
  EXPECT_GT(sup.counter("resilience.sampler_calls"), 0u);
  EXPECT_EQ(sup.counter("resilience.sampler_errors"), 0u);
  EXPECT_EQ(sup.counter("resilience.sampler_skipped"), 0u);
  EXPECT_GT(sup.counter("resilience.sampler_samples"), 0u);
  // Healthy samplers: every breaker closed, and the stack says so.
  for (const auto* s : stack.supervised_samplers()) {
    EXPECT_EQ(s->breaker_state(), resilience::BreakerState::kClosed);
  }
  EXPECT_NE(stack.status().find("breakers closed="), std::string::npos);
  // The tier's own counters are re-ingested as hpcmon.self.* series.
  EXPECT_TRUE(cluster.registry().find_metric(
      "hpcmon.self.resilience.sampler_successes"));
}

TEST(StackRecoveryTest, StatusSurfacesWalAndDeadLetters) {
  const auto wal_dir = fresh_wal_dir("status");
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(
      cluster, parse("sample_interval_s = 30\nwal_path = " + wal_dir + "\n"));
  cluster.run_for(5 * core::kMinute);
  const auto line = stack.status();
  EXPECT_NE(line.find("resilience.wal_records="), std::string::npos);
  EXPECT_NE(line.find("dlq=0"), std::string::npos);
  EXPECT_TRUE(
      cluster.registry().find_metric("hpcmon.self.resilience.wal_records"));
  fs::remove_all(wal_dir);
}

// One torn write poisons the WAL, and every later append fails until the
// log rotates. The stack heals it on degradation_interval_s whether or not
// storm mode is on: rotate, then redeliver the dead letters. Without the
// heal, 2 simulated hours log 2 records and evict hundreds of dead letters.
TEST(StackRecoveryTest, WalSelfHealsWithoutStormMode) {
  const auto wal_dir = fresh_wal_dir("self_heal");
  sim::ClusterParams p = cluster_params();
  p.shape.cabinets = 2;
  p.shape.chassis_per_cabinet = 1;
  p.shape.blades_per_chassis = 1;
  p.shape.nodes_per_blade = 4;  // 8 nodes
  sim::Cluster cluster(p);
  resilience::FaultSpec spec;
  spec.fs_short_write_at = 3;
  resilience::FaultPlan plan(17, spec);
  MonitoringStack stack(cluster,
                        parse("sample_interval_s = 30\n"
                              "probe_interval_s = 0\n"
                              "health_interval_s = 0\n"
                              "wal_path = " +
                              wal_dir + "\n"),
                        &plan);
  ASSERT_EQ(stack.degradation(), nullptr);
  cluster.run_for(2 * core::kHour);

  EXPECT_EQ(plan.injected().fs_short_writes, 1u);
  EXPECT_FALSE(stack.wal()->poisoned());
  EXPECT_EQ(stack.wal()->dead_letter_count(), 0u);
  const auto snap = stack.obs_snapshot();
  // Every frame that failed while the log was poisoned was parked, then
  // logged by a redelivery pass; none was evicted.
  EXPECT_GT(snap.counter("resilience.delivery_failures"), 0u);
  EXPECT_EQ(snap.counter("resilience.dead_letter_evictions"), 0u);
  EXPECT_EQ(snap.counter("resilience.redelivered"),
            snap.counter("resilience.delivery_failures"));
  EXPECT_EQ(snap.counter("resilience.wal_records"),
            snap.counter("resilience.delivered_frames") +
                snap.counter("resilience.redelivered"));
  EXPECT_GT(snap.counter("resilience.wal_records"), 100u);
  fs::remove_all(wal_dir);
}

}  // namespace
}  // namespace hpcmon::stack
