// End-to-end resilience: crash recovery from the WAL (hot tier restored
// byte-identical to an uninterrupted run), a kill at every WAL write of a
// stack whose WAL writes on its own thread (no stored sample without its
// record), shutdown draining the ingest tier, WAL truncation behind the
// tier watermark, and the operator surface for all of it.
#include "stack/stack.hpp"

#include <gtest/gtest.h>

#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>

#include "resilience/fault.hpp"
#include "resilience/wal.hpp"
#include "transport/codec.hpp"

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

// A FaultPlan whose scripted crash holds the thread that drew it (the WAL's
// writer) still until release(): the instant the process dies at that WAL
// write, kept long enough for the test to read what the store holds then.
class FreezeAtCrash : public resilience::FaultPlan {
 public:
  using FaultPlan::FaultPlan;

  core::FsFault fs_fault(core::FsOp op) override {
    const auto fault = FaultPlan::fs_fault(op);
    if (fault == core::FsFault::kCrash) {
      std::unique_lock lock(freeze_mu_);
      frozen_ = true;
      freeze_cv_.notify_all();
      freeze_cv_.wait(lock, [&] { return released_; });
    }
    return fault;
  }
  void wait_frozen() {
    std::unique_lock lock(freeze_mu_);
    freeze_cv_.wait(lock, [&] { return frozen_; });
  }
  void release() {
    std::scoped_lock lock(freeze_mu_);
    released_ = true;
    freeze_cv_.notify_all();
  }

 private:
  std::mutex freeze_mu_;
  std::condition_variable freeze_cv_;
  bool frozen_ = false;
  bool released_ = false;
};

using Point = std::tuple<std::uint32_t, core::TimePoint, double>;

// One probe component's 16 series and `count` frames of them, a minute
// apart, published straight into a stack's router.
struct ProbeFrames {
  std::vector<core::SeriesId> series;
  std::vector<transport::Frame> frames;
  std::vector<std::set<Point>> points;  // each frame's

  ProbeFrames(sim::Cluster& cluster, const std::string& prefix, int count) {
    auto& reg = cluster.registry();
    const auto component = reg.register_component(
        {prefix + ".harness", core::ComponentKind::kService,
         cluster.topology().system()});
    for (int i = 0; i < 16; ++i) {
      series.push_back(reg.series(
          reg.register_metric({prefix + ".m" + std::to_string(i), "units",
                               "WAL crash probe", false,
                               core::Priority::kStandard}),
          component));
    }
    for (int k = 0; k < count; ++k) {
      core::SampleBatch b;
      b.sweep_time = (k + 1) * core::kMinute;
      b.origin = component;
      std::set<Point> p;
      for (std::size_t i = 0; i < series.size(); ++i) {
        b.samples.push_back({series[i], b.sweep_time, k * 100.0 + i});
        p.insert({core::raw(series[i]), b.sweep_time, k * 100.0 + i});
      }
      frames.push_back(transport::encode_samples(b));
      points.push_back(std::move(p));
    }
  }

  /// The points of frames [0, n).
  std::set<Point> first(std::size_t n) const {
    std::set<Point> out;
    for (std::size_t k = 0; k < n; ++k) {
      out.insert(points[k].begin(), points[k].end());
    }
    return out;
  }

  /// The probe points `stack`'s hot store holds.
  std::set<Point> held_by(const MonitoringStack& stack) const {
    std::set<Point> out;
    for (const auto id : series) {
      for (const auto& p :
           stack.sharded_store()->query_range(id, {0, core::kDay})) {
        out.insert({core::raw(id), p.time, p.value});
      }
    }
    return out;
  }
};

// Kill the process at every WAL write of a short run through the router of
// a stack with shard workers, where the WAL writes on its own thread. At
// the moment of death the store may hold only samples whose records were
// already decided, so every sample it holds is in the WAL replay; and the
// replay holds exactly the frames logged before the killed write.
TEST(StackRecoveryTest, KillAtEveryWalWriteLeavesNoStoreSampleUnlogged) {
  const auto wal_dir = fresh_wal_dir("kill_every_write");
  const auto cfg = parse("ingest_shards = 2\nprobe_interval_s = 0\n"
                         "health_interval_s = 0\nwal_path = " + wal_dir +
                         "\n");
  sim::Cluster cluster(cluster_params());
  constexpr int kFrames = 12;
  const ProbeFrames probe(cluster, "killtest", kFrames);
  const auto& frames = probe.frames;

  // A clean run counts the WAL's writes: one per frame.
  std::uint64_t writes = 0;
  {
    resilience::FaultPlan plan(5);
    MonitoringStack stack(cluster, cfg, &plan);
    for (const auto& f : frames) stack.router().publish(f);
    stack.shutdown();
    writes = plan.fs_ops();
  }
  ASSERT_EQ(writes, static_cast<std::uint64_t>(kFrames));
  fs::remove_all(wal_dir);

  for (std::uint64_t k = 1; k <= writes; ++k) {
    resilience::FaultSpec spec;
    spec.fs_crash_at = k;
    FreezeAtCrash plan(5, spec);
    std::set<Point> held;
    {
      auto stack = std::make_unique<MonitoringStack>(cluster, cfg, &plan);
      for (const auto& f : frames) stack->router().publish(f);
      plan.wait_frozen();
      // Give the shard workers every chance to append what they hold: one
      // that did not wait for the WAL would store the frames posted after
      // the killed write now.
      stack->ingest_pipeline()->drain_for(std::chrono::milliseconds(50));
      held = probe.held_by(*stack);
      plan.release();
      stack->simulate_crash();
    }
    std::set<Point> replayed;
    const auto stats = resilience::WriteAheadLog::replay(
        wal_dir, [&](core::SampleBatch&& b) {
          for (const auto& x : b.samples) {
            replayed.insert({core::raw(x.series), x.time, x.value});
          }
        });
    // The frames before the killed write.
    EXPECT_EQ(replayed, probe.first(k - 1)) << "killed at write " << k;
    EXPECT_EQ(stats.torn_tails, 1u) << "killed at write " << k;
    for (const auto& p : held) {
      EXPECT_TRUE(replayed.contains(p))
          << "killed at write " << k << ": the store held series "
          << std::get<0>(p) << " t=" << std::get<1>(p)
          << " without its record";
    }
    fs::remove_all(wal_dir);
  }
}

// The self-heal of a poisoned WAL while frames are still posted. Dead
// letters are older than anything posted, and replay skips a sample older
// than its series' last, so the heal must log the letters first: a crash
// after it must restore every sample the live store held. Each round posts
// two frames and heals at once, as the stack's heal tick runs right after
// a sweep on the same thread, so the writer has most likely not taken them
// yet; either way they must land behind the letters.
TEST(StackRecoveryTest, HealWithPostsPendingReplaysEveryRedeliveredSample) {
  const auto wal_dir = fresh_wal_dir("heal_pending");
  const auto cfg = parse("ingest_shards = 2\nprobe_interval_s = 0\n"
                         "health_interval_s = 0\nwal_path = " + wal_dir +
                         "\n");
  sim::Cluster cluster(cluster_params());
  constexpr int kRounds = 4;
  constexpr int kPerRound = 6;
  const ProbeFrames probe(cluster, "healtest", kRounds * kPerRound);
  std::set<Point> held;
  {
    MonitoringStack stack(cluster, cfg);
    auto* wal = stack.wal_delivery();
    std::size_t next = 0;
    const auto publish = [&](int n) {
      for (int i = 0; i < n; ++i) stack.router().publish(probe.frames[next++]);
    };
    for (int round = 0; round < kRounds; ++round) {
      publish(2);  // logged
      ASSERT_TRUE(wal->sync().is_ok());
      wal->simulate_torn_tail();
      publish(2);  // the writer dead-letters them
      ASSERT_TRUE(wal->sync().is_ok());
      ASSERT_EQ(wal->dead_letter_count(), 2u) << "round " << round;
      // An idle writer wakes slower than this thread reaches the heal.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      publish(2);
      // What the stack's heal tick runs.
      ASSERT_TRUE(wal->rotate().is_ok());
      EXPECT_EQ(wal->redeliver(), 4u) << "round " << round;
      ASSERT_TRUE(wal->sync().is_ok());
      EXPECT_EQ(wal->dead_letter_count(), 0u) << "round " << round;
    }
    stack.drain_ingest();
    held = probe.held_by(stack);
    stack.simulate_crash();
  }
  EXPECT_EQ(held, probe.first(kRounds * kPerRound));
  MonitoringStack recovered(cluster, cfg);
  EXPECT_EQ(recovered.replay_stats().torn_tails,
            static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(probe.held_by(recovered), held);
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
