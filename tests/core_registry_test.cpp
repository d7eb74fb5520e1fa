#include "core/registry.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>

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

}  // namespace
}  // namespace hpcmon::core
