#include "core/registry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace hpcmon::core {
namespace {

TEST(RegistryTest, MetricInterning) {
  MetricRegistry reg;
  const auto a = reg.register_metric({"power.node_w", "W", "node draw", false});
  const auto b = reg.register_metric({"power.node_w", "V", "ignored", true});
  EXPECT_EQ(a, b);  // same name -> same index
  EXPECT_EQ(reg.metric(a).units, "W");  // first registration wins
  EXPECT_EQ(reg.metric_count(), 1u);
  EXPECT_TRUE(reg.find_metric("power.node_w").has_value());
  EXPECT_FALSE(reg.find_metric("nope").has_value());
}

TEST(RegistryTest, ComponentHierarchy) {
  MetricRegistry reg;
  const auto sys = reg.register_component({"system", ComponentKind::kSystem,
                                           kNoComponent});
  const auto cab = reg.register_component({"c0-0", ComponentKind::kCabinet, sys});
  const auto n1 = reg.register_component({"c0-0c0s0n0", ComponentKind::kNode, cab});
  const auto n2 = reg.register_component({"c0-0c0s0n1", ComponentKind::kNode, cab});
  EXPECT_EQ(reg.component_count(), 4u);
  EXPECT_EQ(reg.component(n1).parent, cab);
  const auto nodes = reg.components_of_kind(ComponentKind::kNode);
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_EQ(nodes[0], n1);
  EXPECT_EQ(nodes[1], n2);
  const auto kids = reg.children_of(cab);
  ASSERT_EQ(kids.size(), 2u);
}

TEST(RegistryTest, SeriesInterning) {
  MetricRegistry reg;
  const auto c = reg.register_component({"n0", ComponentKind::kNode, kNoComponent});
  const auto s1 = reg.series("cpu", c);
  const auto s2 = reg.series("cpu", c);
  EXPECT_EQ(s1, s2);
  const auto s3 = reg.series("mem", c);
  EXPECT_NE(s1, s3);
  EXPECT_EQ(reg.series_count(), 2u);
  EXPECT_EQ(reg.series_component(s1), c);
  EXPECT_EQ(reg.series_name(s1), "cpu@n0");
}

TEST(RegistryTest, DescribeAllListsUnitsAndDocs) {
  MetricRegistry reg;
  reg.register_metric({"hsn.link.stalls", "events", "credit stalls", true});
  reg.register_metric({"mystery", "", "", false});
  const auto text = reg.describe_all();
  EXPECT_NE(text.find("hsn.link.stalls [events] (counter): credit stalls"),
            std::string::npos);
  EXPECT_NE(text.find("mystery [-]: (undocumented)"), std::string::npos);
}

TEST(RegistryTest, InfoReferencesSurviveGrowth) {
  // metric() and component() hand out references that callers (the rollup
  // tree's shard workers among them) read after the registry lock is
  // released, while other threads keep registering.
  MetricRegistry reg;
  const auto& metric = reg.metric(
      reg.register_metric({"first.metric", "W", "the first family", false}));
  const auto& system = reg.component(
      reg.register_component({"system", ComponentKind::kSystem, kNoComponent}));
  for (int i = 0; i < 1000; ++i) {
    const auto n = std::to_string(i);
    reg.register_metric({"m" + n, "", "", false});
    reg.register_component({"c" + n, ComponentKind::kNode, kNoComponent});
  }
  EXPECT_EQ(metric.name, "first.metric");
  EXPECT_EQ(system.name, "system");
}

TEST(RegistryTest, ConcurrentInterningIsSafe) {
  MetricRegistry reg;
  const auto c = reg.register_component({"n0", ComponentKind::kNode, kNoComponent});
  std::vector<std::thread> threads;
  std::array<SeriesId, 8> results{};
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&reg, c, i, &results] {
      results[i] = reg.series("same.metric", c);
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 1; i < 8; ++i) EXPECT_EQ(results[i], results[0]);
  EXPECT_EQ(reg.series_count(), 1u);
}

TEST(RegistryTest, SeriesRecordsCarryPriorityAndRejectUnknownIds) {
  MetricRegistry reg;
  const auto hot = reg.register_metric(
      {"node.up", "", "", false, Priority::kCritical});
  const auto bulk = reg.register_metric(
      {"hsn.link.bytes", "", "", true, Priority::kBulk});
  // 300 series cross the first two chunk boundaries (64 and 192 entries).
  std::vector<SeriesId> ids;
  for (int i = 0; i < 300; ++i) {
    const auto c = reg.register_component(
        {"n" + std::to_string(i), ComponentKind::kNode, kNoComponent});
    ids.push_back(reg.series(i % 2 == 0 ? hot : bulk, c));
  }
  for (int i = 0; i < 300; ++i) {
    const auto id = ids[static_cast<std::size_t>(i)];
    EXPECT_EQ(raw(id), static_cast<std::uint32_t>(i));
    EXPECT_EQ(reg.series_metric(id), i % 2 == 0 ? hot : bulk);
    EXPECT_EQ(reg.series_component(id),
              ComponentId{static_cast<std::uint32_t>(i)});
    EXPECT_EQ(reg.series_priority(id),
              i % 2 == 0 ? Priority::kCritical : Priority::kBulk);
  }
  EXPECT_EQ(reg.series_name(ids[299]), "hsn.link.bytes@n299");
  const SeriesId unknown{300};
  EXPECT_THROW(reg.series_metric(unknown), std::out_of_range);
  EXPECT_THROW(reg.series_component(unknown), std::out_of_range);
  EXPECT_THROW(reg.series_priority(unknown), std::out_of_range);
  EXPECT_THROW(reg.series_name(unknown), std::out_of_range);
  EXPECT_THROW(reg.metric(2), std::out_of_range);
  EXPECT_THROW(reg.component(ComponentId{300}), std::out_of_range);
}

TEST(RegistryTest, LockFreeReadsRaceInterning) {
  // The obs exporter interns hpcmon.self.* series while shard workers,
  // serve and relay read series records without the lock: every id below
  // series_count() must read back complete, whatever the writer is doing.
  MetricRegistry reg;
  constexpr std::uint32_t kMetrics = 7;
  constexpr std::uint32_t kSeries = 5000;
  for (std::uint32_t m = 0; m < kMetrics; ++m) {
    reg.register_metric({"m" + std::to_string(m), "", "", false,
                         static_cast<Priority>(m % kPriorityClasses)});
  }
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      std::size_t checked = 0;
      while (checked < kSeries) {
        const auto n = reg.series_count();
        for (; checked < n; ++checked) {
          const SeriesId id{static_cast<std::uint32_t>(checked)};
          const auto m = static_cast<std::uint32_t>(checked % kMetrics);
          const bool ok =
              reg.series_metric(id) == m &&
              reg.series_component(id) == ComponentId{raw(id)} &&
              reg.series_priority(id) ==
                  static_cast<Priority>(m % kPriorityClasses) &&
              reg.series_name(id) == "m" + std::to_string(m) + "@c" +
                                         std::to_string(checked) &&
              reg.metric(m).name == "m" + std::to_string(m);
          if (!ok) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::uint32_t i = 0; i < kSeries; ++i) {
    const auto c = reg.register_component(
        {"c" + std::to_string(i), ComponentKind::kNode, kNoComponent});
    reg.series(i % kMetrics, c);
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(reg.series_count(), kSeries);
}

}  // namespace
}  // namespace hpcmon::core
