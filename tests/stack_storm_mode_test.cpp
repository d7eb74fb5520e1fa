// Storm-mode wiring through MonitoringStack: registry priorities drive the
// ingest door, the DegradationController's transitions reach the pipeline
// and the samplers, controller telemetry is re-ingested and visible in
// status(), and shutdown() is deadline-bounded — a wedged tier is reported,
// never waited on forever.
#include "stack/stack.hpp"

#include <gtest/gtest.h>

#include <string>

namespace hpcmon::stack {
namespace {

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

const std::string kStormCfg =
    "sample_interval_s = 30\n"
    "ingest_shards = 2\n"
    "ingest_queue_cap = 512\n"
    "ingest_policy = drop_oldest\n"
    "breaker_threshold = 3\n"
    "degradation = 1\n"
    "degradation_interval_s = 30\n";

TEST(StormModeStackTest, FairWeatherStaysNormalAndEvaluates) {
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(cluster, parse(kStormCfg));
  ASSERT_NE(stack.degradation(), nullptr);
  cluster.run_for(10 * core::kMinute);
  const auto snap = stack.obs_snapshot();
  // 30 s cadence over 10 min.
  EXPECT_GE(snap.counter("resilience.degradation.evaluations"), 10u);
  EXPECT_EQ(stack.degradation()->mode(), core::DegradationMode::kNormal);
  EXPECT_EQ(snap.counter("resilience.degradation.transitions"), 0u);
  EXPECT_EQ(stack.ingest_pipeline()->mode(), core::DegradationMode::kNormal);
  // A healthy run sheds nothing and loses nothing.
  for (const char* name :
       {"ingest.shed_critical_samples", "ingest.shed_standard_samples",
        "ingest.shed_bulk_samples", "ingest.dropped_samples",
        "ingest.rejected_samples"}) {
    EXPECT_EQ(snap.counter(name), 0u) << name;
  }
}

TEST(StormModeStackTest, ControllerTelemetryIsIngestedCritical) {
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(cluster, parse(kStormCfg));
  cluster.run_for(10 * core::kMinute);
  stack.drain_ingest();
  auto& reg = cluster.registry();
  bool found = false;
  for (std::uint32_t i = 0; i < reg.series_count(); ++i) {
    const auto id = core::SeriesId{i};
    if (reg.series_name(id).find("resilience.degradation.mode") ==
        std::string::npos) {
      continue;
    }
    found = true;
    EXPECT_EQ(reg.series_priority(id), core::Priority::kCritical);
    const auto pts =
        stack.sharded_store()->query_range(id, {0, cluster.now() + core::kHour});
    EXPECT_FALSE(pts.empty());  // the controller reports itself every eval
  }
  EXPECT_TRUE(found);
}

TEST(StormModeStackTest, TransitionsReachDoorAndSamplers) {
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(cluster, parse(kStormCfg));
  auto* d = stack.degradation();
  ASSERT_NE(d, nullptr);
  ASSERT_FALSE(stack.supervised_samplers().empty());

  // Force the loop with synthetic saturation readings (the controller is
  // deliberately signal-agnostic): two ticks arm, the third escalates again.
  resilience::HealthSignals storm;
  storm.queue_fill = 1.0;
  d->evaluate(storm);
  d->evaluate(storm);
  EXPECT_EQ(d->mode(), core::DegradationMode::kShedBulk);
  EXPECT_EQ(stack.ingest_pipeline()->mode(), core::DegradationMode::kShedBulk);

  d->evaluate(storm);
  d->evaluate(storm);
  EXPECT_EQ(d->mode(), core::DegradationMode::kSummarize);
  EXPECT_EQ(stack.ingest_pipeline()->mode(), core::DegradationMode::kSummarize);
  // SUMMARIZE widens sampler cadence — except critical samplers (the health
  // battery), which keep full cadence through any storm.
  const auto stride = d->config().sampler_stride[static_cast<std::size_t>(
      core::DegradationMode::kSummarize)];
  EXPECT_GT(stride, 1u);
  for (const auto* s : stack.supervised_samplers()) {
    if (s->priority() == core::Priority::kCritical) {
      EXPECT_EQ(s->stride(), 1u);
    } else {
      EXPECT_EQ(s->stride(), stride);
    }
  }

  // Recovery unwinds the strides too.
  resilience::HealthSignals calm;
  for (int i = 0; i < 12; ++i) d->evaluate(calm);
  EXPECT_EQ(d->mode(), core::DegradationMode::kNormal);
  EXPECT_EQ(stack.ingest_pipeline()->mode(), core::DegradationMode::kNormal);
  for (const auto* s : stack.supervised_samplers()) EXPECT_EQ(s->stride(), 1u);
}

TEST(StormModeStackTest, StatusCarriesDegradationSegment) {
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(cluster, parse(kStormCfg));
  cluster.run_for(5 * core::kMinute);
  const auto line = stack.status();
  EXPECT_NE(line.find("NORMAL"), std::string::npos) << line;
}

TEST(StormModeStackTest, ShutdownDrainsCleanlyWithinDeadline) {
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(cluster, parse(kStormCfg));
  cluster.run_for(10 * core::kMinute);
  const auto report = stack.shutdown(std::chrono::milliseconds(5000));
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.drained);
  EXPECT_EQ(report.abandoned_batches, 0);
  // Idempotent: a second call is a no-op, and so is the destructor after it.
  const auto again = stack.shutdown();
  EXPECT_TRUE(again.clean());
}

TEST(StormModeStackTest, WedgedIngestIsReportedNotWaitedOn) {
  // The drill: pipeline constructed but never started (ingest_autostart=0),
  // so nothing ever drains. shutdown() must come back at its deadline with
  // an exact abandonment count instead of hanging teardown forever.
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(cluster,
                        parse(kStormCfg + "ingest_autostart = 0\n"));
  ASSERT_FALSE(stack.ingest_pipeline()->started());
  cluster.run_for(5 * core::kMinute);  // sweeps queue work that never moves
  ASSERT_GT(stack.ingest_pipeline()->in_flight(), 0);
  const auto queued = stack.ingest_pipeline()->in_flight();

  const auto t0 = std::chrono::steady_clock::now();
  const auto report = stack.shutdown(std::chrono::milliseconds(200));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(5));  // bounded, not wedged
  EXPECT_FALSE(report.drained);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.abandoned_batches, queued);
}

}  // namespace
}  // namespace hpcmon::stack
