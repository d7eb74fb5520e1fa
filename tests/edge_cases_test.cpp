// Edge cases across modules: empty inputs, disabled features, boundary
// values — the paths production monitoring hits during bring-up and quiet
// hours.
#include <gtest/gtest.h>

#include "analysis/changepoint.hpp"
#include "analysis/congestion.hpp"
#include "analysis/power_profile.hpp"
#include "analysis/trend.hpp"
#include "collect/health.hpp"
#include "store/logstore.hpp"
#include "store/tsdb.hpp"
#include "transport/codec.hpp"
#include "viz/drilldown.hpp"
#include "viz/export.hpp"
#include "viz/query.hpp"

namespace hpcmon {
namespace {

TEST(CodecEdge, EmptyBatchesRoundTrip) {
  core::SampleBatch empty;
  const auto decoded = transport::decode_samples(transport::encode_samples(empty));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_TRUE(decoded.value().samples.empty());

  const auto logs = transport::decode_logs(transport::encode_logs({}));
  ASSERT_TRUE(logs.is_ok());
  EXPECT_TRUE(logs.value().empty());
}

TEST(CodecEdge, HugeMessageTruncatedSafely) {
  core::LogEvent e;
  e.message = std::string(100000, 'x');  // > u16 length field
  const auto back = transport::decode_logs(transport::encode_logs({e}));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value()[0].message.size(), 65535u);
}

TEST(TsdbEdge, QueryEmptyAndUnknownSeries) {
  store::TimeSeriesStore store;
  EXPECT_TRUE(store.query_range(core::SeriesId{99}, {0, 100}).empty());
  EXPECT_FALSE(store.latest(core::SeriesId{99}).has_value());
  EXPECT_FALSE(store.has_series(core::SeriesId{99}));
  EXPECT_TRUE(store.downsample(core::SeriesId{0}, {0, 100}, 0, store::Agg::kMean)
                  .empty());  // zero bucket
  EXPECT_EQ(store.stats().series, 0u);
}

TEST(TsdbEdge, EmptyRangeAndReversedRange) {
  store::TimeSeriesStore store;
  store.append(core::SeriesId{0}, 50, 1.0);
  EXPECT_TRUE(store.query_range(core::SeriesId{0}, {60, 60}).empty());
  EXPECT_TRUE(store.query_range(core::SeriesId{0}, {80, 20}).empty());
}

TEST(LogStoreEdge, EmptyStoreQueries) {
  store::LogStore logs;
  EXPECT_EQ(logs.count({}), 0u);
  EXPECT_TRUE(logs.count_by_bucket({}, core::kMinute).empty());
  const auto hist = logs.severity_histogram();
  for (const auto n : hist) EXPECT_EQ(n, 0u);
}

TEST(TrendEdge, DegenerateInputs) {
  EXPECT_EQ(analysis::fit_trend({}).points, 0u);
  EXPECT_EQ(analysis::fit_trend({{5, 1.0}}).points, 1u);
  // All points at the same instant: denominator guard.
  const auto fit = analysis::fit_trend({{5, 1.0}, {5, 2.0}, {5, 3.0}});
  EXPECT_DOUBLE_EQ(fit.slope_per_hour, 0.0);
  analysis::TrendAnalyzer tr(core::kHour);
  EXPECT_FALSE(tr.fit().has_value());
  EXPECT_FALSE(tr.forecast_crossing(10.0).has_value());
}

TEST(PowerProfileEdge, EmptyTraces) {
  const auto p = analysis::PowerProfile::from_trace("x", {});
  EXPECT_TRUE(p.shape.empty());
  analysis::PowerProfileLibrary lib;
  lib.set_reference(p);
  // Scoring against an empty reference is defined (large distance).
  const auto score = lib.score_run("x", {{0, 1.0}});
  ASSERT_TRUE(score.has_value());
  EXPECT_GT(*score, 1e6);
  EXPECT_TRUE(analysis::detect_imbalance({}).empty());
  EXPECT_TRUE(analysis::detect_imbalance({{}, {}}).empty());
}

TEST(HealthEdge, DisabledChecksPass) {
  sim::ClusterParams params;
  params.shape.cabinets = 1;
  params.shape.chassis_per_cabinet = 1;
  params.shape.blades_per_chassis = 2;
  params.shape.nodes_per_blade = 4;
  params.seed = 1;
  sim::Cluster cluster(params);
  collect::HealthConfig config;
  config.check_fs_mounts = false;
  config.check_daemons = false;
  config.min_free_mem_gb = 0.0;
  collect::HealthCheckSuite health(cluster, config);
  cluster.inject_fs_unmount(core::kSecond, 0, core::kHour);
  cluster.run_for(10 * core::kSecond);
  EXPECT_TRUE(health.check_node(0).ok);  // unmount ignored when disabled
}

TEST(VizEdge, DrillDownOnEmptyStore) {
  core::MetricRegistry reg;
  store::TimeSeriesStore store;
  store::JobStore jobs;
  viz::DrillDown drill(store, reg, jobs);
  const auto c = reg.register_component(
      {"n0", core::ComponentKind::kNode, core::kNoComponent});
  const auto result = drill.investigate("metric", {c}, 100, core::kMinute,
                                        [](core::ComponentId) { return 0; });
  EXPECT_TRUE(result.breakdown.empty());
  EXPECT_FALSE(result.responsible_job.has_value());
  EXPECT_DOUBLE_EQ(result.aggregate_value, 0.0);
}

TEST(VizEdge, ExportCsvEmpty) {
  EXPECT_EQ(viz::export_csv({}), "time_s\n");
  viz::ChartSeries s;
  s.label = "empty";
  EXPECT_EQ(viz::export_csv({s}), "time_s,empty\n");
}

TEST(OnsetEdge, ConstantSeriesNoOnset) {
  std::vector<core::TimedValue> flat;
  for (int i = 0; i < 100; ++i) flat.push_back({i * core::kMinute, 7.0});
  EXPECT_TRUE(analysis::detect_onsets(flat).empty());
}

TEST(CongestionEdge, SingleLinkMachine) {
  core::MetricRegistry reg;
  sim::MachineShape shape;
  shape.cabinets = 1;
  shape.chassis_per_cabinet = 1;
  shape.blades_per_chassis = 2;
  shape.nodes_per_blade = 1;
  sim::Topology topo(reg, shape, sim::FabricKind::kTorus3D);
  std::vector<double> stalls(topo.num_links(), 0.9);
  const auto report = analysis::analyze_congestion(topo, stalls);
  EXPECT_GT(report.level, analysis::CongestionLevel::kNone);
  ASSERT_FALSE(report.regions.empty());
}

TEST(AggregateEdge, MixedSweepMembership) {
  // A component that reports only on some sweeps still aggregates correctly.
  core::MetricRegistry reg;
  store::TimeSeriesStore store;
  const auto a = reg.register_component(
      {"a", core::ComponentKind::kNode, core::kNoComponent});
  const auto b = reg.register_component(
      {"b", core::ComponentKind::kNode, core::kNoComponent});
  store.append(reg.series("m", a), core::kMinute, 1.0);
  store.append(reg.series("m", a), 2 * core::kMinute, 1.0);
  store.append(reg.series("m", b), 2 * core::kMinute, 3.0);
  const auto sum = viz::aggregate_across(store, reg, "m", {a, b},
                                         {0, core::kHour}, store::Agg::kSum);
  ASSERT_EQ(sum.size(), 2u);
  EXPECT_DOUBLE_EQ(sum[0].value, 1.0);
  EXPECT_DOUBLE_EQ(sum[1].value, 4.0);
}

}  // namespace
}  // namespace hpcmon
