#include "analysis/detector_bank.hpp"

#include <gtest/gtest.h>

#include "core/rng.hpp"

namespace hpcmon::analysis {
namespace {

using core::ComponentId;
using core::SampleBatch;

struct BankFixture {
  core::MetricRegistry reg;
  DetectorBank bank{reg};
  ComponentId c0 = reg.register_component(
      {"n0", core::ComponentKind::kNode, core::kNoComponent});
  ComponentId c1 = reg.register_component(
      {"n1", core::ComponentKind::kNode, core::kNoComponent});

  SampleBatch batch(core::TimePoint t, core::SeriesId sid, double v) {
    SampleBatch b;
    b.sweep_time = t;
    b.samples.push_back({sid, t, v});
    return b;
  }
};

TEST(DetectorBankTest, AboveThresholdWatch) {
  BankFixture f;
  f.bank.watch("hot", "temp", above_factory(80.0, 5.0));
  const auto sid = f.reg.series("temp", f.c0);
  EXPECT_TRUE(f.bank.process(f.batch(1, sid, 70.0)).empty());
  const auto hits = f.bank.process(f.batch(2, sid, 85.0));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].watch_name, "hot");
  EXPECT_EQ(hits[0].component, f.c0);
  EXPECT_EQ(hits[0].metric, "temp");
  // Hysteresis: stays quiet until it drops below 75 and crosses again.
  EXPECT_TRUE(f.bank.process(f.batch(3, sid, 90.0)).empty());
  EXPECT_TRUE(f.bank.process(f.batch(4, sid, 74.0)).empty());
  EXPECT_EQ(f.bank.process(f.batch(5, sid, 85.0)).size(), 1u);
}

TEST(DetectorBankTest, BelowWatchReportsRealValue) {
  BankFixture f;
  f.bank.watch("low_mem", "mem_free", below_factory(8.0));
  const auto sid = f.reg.series("mem_free", f.c0);
  EXPECT_TRUE(f.bank.process(f.batch(1, sid, 100.0)).empty());
  const auto hits = f.bank.process(f.batch(2, sid, 3.0));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_DOUBLE_EQ(hits[0].event.value, 3.0);
  EXPECT_EQ(hits[0].event.detector, "below");
}

TEST(DetectorBankTest, PerSeriesIsolation) {
  BankFixture f;
  f.bank.watch("z", "m", zscore_factory(40, 4.0));
  const auto s0 = f.reg.series("m", f.c0);
  const auto s1 = f.reg.series("m", f.c1);
  core::Rng rng(3);
  // c0 sits near 10, c1 near 1000: each learns its own baseline.
  for (int i = 0; i < 60; ++i) {
    SampleBatch b;
    b.sweep_time = i;
    b.samples.push_back({s0, i, rng.normal(10.0, 0.5)});
    b.samples.push_back({s1, i, rng.normal(1000.0, 10.0)});
    EXPECT_TRUE(f.bank.process(b).empty());
  }
  EXPECT_EQ(f.bank.active_detectors(), 2u);
  // A value normal for c1 is wildly anomalous for c0.
  const auto hits = f.bank.process(f.batch(100, s0, 1000.0));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].component, f.c0);
}

TEST(DetectorBankTest, MultipleWatchesOnOneMetric) {
  BankFixture f;
  f.bank.watch("warn", "temp", above_factory(70.0));
  f.bank.watch("crit", "temp", above_factory(90.0));
  const auto sid = f.reg.series("temp", f.c0);
  const auto warm = f.bank.process(f.batch(1, sid, 75.0));
  ASSERT_EQ(warm.size(), 1u);
  EXPECT_EQ(warm[0].watch_name, "warn");
  const auto hot = f.bank.process(f.batch(2, sid, 95.0));
  ASSERT_EQ(hot.size(), 1u);  // warn already in alarm; crit fires
  EXPECT_EQ(hot[0].watch_name, "crit");
}

TEST(DetectorBankTest, AnomaliesFollowSampleThenWatchOrder) {
  // Watches on two metrics, registered interleaved: each sample's anomalies
  // come in registration order, and samples in batch order.
  BankFixture f;
  f.bank.watch("a1", "a", above_factory(1.0));
  f.bank.watch("b1", "b", above_factory(1.0));
  f.bank.watch("a2", "a", above_factory(2.0));
  SampleBatch b;
  b.samples.push_back({f.reg.series("b", f.c0), 1, 5.0});
  b.samples.push_back({f.reg.series("a", f.c0), 1, 5.0});
  b.samples.push_back({f.reg.series("a", f.c1), 1, 5.0});
  const auto out = f.bank.process(b);
  ASSERT_EQ(out.size(), 5u);
  const std::vector<std::pair<std::string, ComponentId>> want = {
      {"b1", f.c0}, {"a1", f.c0}, {"a2", f.c0}, {"a1", f.c1}, {"a2", f.c1}};
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(out[i].watch_name, want[i].first) << i;
    EXPECT_EQ(out[i].component, want[i].second) << i;
  }
}

TEST(DetectorBankTest, UnwatchedMetricsIgnoredCheaply) {
  BankFixture f;
  f.bank.watch("w", "watched", above_factory(1.0));
  const auto other = f.reg.series("unwatched", f.c0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(f.bank.process(f.batch(i, other, 100.0)).empty());
  }
  EXPECT_EQ(f.bank.active_detectors(), 0u);
}

}  // namespace
}  // namespace hpcmon::analysis
