// MonitoringStack + rollup tree: off by default, wired behind rollup_enable
// on both the synchronous and sharded ingest paths, ticked on the simulated
// timeline, feeding the heatmap / fleet-glance read paths with
// zero store scatter-gather, and served over the wire as kRollupQuery /
// kRollupSub / kRollupUnsub.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "serve/client.hpp"
#include "stack/stack.hpp"
#include "viz/fleet.hpp"
#include "viz/heatmap.hpp"

namespace hpcmon::stack {
namespace {

sim::ClusterParams cluster_params() {
  sim::ClusterParams p;
  p.shape.cabinets = 2;
  p.shape.chassis_per_cabinet = 1;
  p.shape.blades_per_chassis = 2;
  p.shape.nodes_per_blade = 4;
  p.tick = 5 * core::kSecond;
  p.seed = 99;
  return p;
}

core::Config parse(const char* text) {
  auto r = core::Config::parse(text);
  EXPECT_TRUE(r.is_ok());
  return r.value();
}

TEST(StackRollup, OffByDefault) {
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(cluster, core::Config{});
  EXPECT_EQ(stack.rollup(), nullptr);
  stack.rollup_tick();  // no-op, not a crash
  EXPECT_EQ(stack.status().find("rollup"), std::string::npos);
}

TEST(StackRollup, SyncPathFeedsTreeAndReadsAvoidTheStore) {
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(cluster, parse("rollup_enable = 1\n"
                                       "rollup_tick_s = 30\n"));
  ASSERT_NE(stack.rollup(), nullptr);
  cluster.run_for(10 * core::kMinute);

  const auto snap = stack.rollup()->snapshot();
  ASSERT_GT(snap->version(), 0u);
  const auto& topo = cluster.topology();
  const auto* sys = snap->find(topo.system(), "node.cpu_util");
  ASSERT_NE(sys, nullptr);
  EXPECT_EQ(sys->count, static_cast<std::uint64_t>(topo.num_nodes()));

  // Every level agrees with the per-series latest values in the hot store.
  for (int c = 0; c < topo.num_cabinets(); ++c) {
    double sum = 0.0;
    for (const int n : topo.nodes_in_cabinet(c)) {
      const auto latest = stack.sharded_store()->latest(
          cluster.registry().series("node.cpu_util", topo.node(n)));
      ASSERT_TRUE(latest.has_value());
      sum += latest->value;
    }
    const auto* cab = snap->find(topo.cabinet(c), "node.cpu_util");
    ASSERT_NE(cab, nullptr);
    EXPECT_EQ(cab->sum, sum);
    EXPECT_EQ(cab->count, topo.nodes_in_cabinet(c).size());
  }

  // The heatmap rendered from the rollup snapshot equals the one rendered
  // from store queries — and does not touch the store at all.
  viz::HeatmapOptions opts;
  opts.title = "cpu";
  opts.scale_min = 0.0;
  opts.scale_max = 1.0;
  const auto from_store = viz::machine_heatmap(
      topo,
      [&](int node) {
        const auto latest = stack.sharded_store()->latest(
            cluster.registry().series("node.cpu_util", topo.node(node)));
        return latest ? latest->value
                      : std::numeric_limits<double>::quiet_NaN();
      },
      opts);
  const auto queries_before = stack.obs_snapshot().counter("store.queries");
  const auto from_rollup =
      viz::machine_heatmap(topo, *snap, "node.cpu_util", opts);
  EXPECT_EQ(stack.obs_snapshot().counter("store.queries"), queries_before)
      << "rollup-fed heatmap must not scatter-gather the store";
  EXPECT_EQ(from_rollup, from_store);

  // Fleet-at-a-glance report: system + per-cabinet rows off the snapshot.
  const auto glance =
      viz::fleet_glance(topo, *snap, {"node.cpu_util", "node.temp_c"});
  EXPECT_NE(glance.find("system"), std::string::npos);
  EXPECT_NE(glance.find("c1-0"), std::string::npos);
  EXPECT_NE(glance.find("rollup v"), std::string::npos);
  EXPECT_EQ(stack.obs_snapshot().counter("store.queries"), queries_before);

  // rollup.* instruments ride the shared obs plane; status reports the tree.
  const auto obs = stack.obs_snapshot();
  EXPECT_GT(obs.counter("rollup.ticks"), 0u);
  EXPECT_GT(obs.counter("rollup.updates"), 0u);
  EXPECT_GT(obs.counter("rollup.reads"), 0u);
  EXPECT_NE(stack.status().find("rollup v="), std::string::npos);
}

TEST(StackRollup, ShardedPathObservesThroughTheShards) {
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(cluster, parse("rollup_enable = 1\n"
                                       "ingest_shards = 3\n"));
  ASSERT_NE(stack.rollup(), nullptr);
  ASSERT_NE(stack.sharded_store(), nullptr);
  EXPECT_EQ(stack.sharded_store()->rollup(), stack.rollup());
  EXPECT_GE(stack.rollup()->shard_count(),
            stack.sharded_store()->shard_count());
  cluster.run_for(10 * core::kMinute);
  stack.drain_ingest();
  stack.rollup_tick();

  const auto& topo = cluster.topology();
  const auto mean = stack.sharded_store()->rollup_aggregate(
      topo.system(), "node.cpu_util", store::Agg::kMean);
  ASSERT_TRUE(mean.has_value());
  // Scatter-gather reference over the shards' latest values.
  double sum = 0.0;
  for (int n = 0; n < topo.num_nodes(); ++n) {
    const auto latest = stack.sharded_store()->latest(
        cluster.registry().series("node.cpu_util", topo.node(n)));
    ASSERT_TRUE(latest.has_value());
    sum += latest->value;
  }
  EXPECT_EQ(*mean, sum / topo.num_nodes());
}

TEST(StackRollup, ServedOverTheWire) {
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(cluster, parse("serve_port = 0\n"
                                       "rollup_enable = 1\n"
                                       "rollup_tick_s = 30\n"));
  ASSERT_NE(stack.serve(), nullptr);
  ASSERT_TRUE(stack.serve()->running()) << stack.serve()->error();
  cluster.run_for(5 * core::kMinute);

  serve::ServeClient client;
  ASSERT_TRUE(client.connect(stack.serve()->port()));

  // Query by name: the reply stat IS the in-process snapshot entry.
  auto sys = client.rollup_query("system", "node.cpu_util");
  ASSERT_TRUE(sys.is_ok()) << sys.message();
  ASSERT_TRUE(sys.value().found);
  const auto snap = stack.rollup()->snapshot();
  EXPECT_EQ(sys.value().stat, *snap->find(cluster.topology().system(),
                                          "node.cpu_util"));
  auto cab = client.rollup_query("c1-0", "node.cpu_util");
  ASSERT_TRUE(cab.is_ok());
  ASSERT_TRUE(cab.value().found);
  EXPECT_EQ(cab.value().stat.count,
            static_cast<std::uint64_t>(
                cluster.topology().nodes_in_cabinet(1).size()));
  // Unknown component / metric: answered, not found.
  auto missing = client.rollup_query("c9-9", "node.cpu_util");
  ASSERT_TRUE(missing.is_ok());
  EXPECT_FALSE(missing.value().found);

  // Subscribe: the ack carries the current stat; later ticks push deltas.
  auto ack = client.rollup_sub("system", "node.cpu_util");
  ASSERT_TRUE(ack.is_ok()) << ack.message();
  EXPECT_TRUE(ack.value().current.found);
  EXPECT_TRUE(stack.serve()->has_rollup_subs());
  cluster.run_for(5 * core::kMinute);
  auto push = client.poll_push(2000);
  ASSERT_TRUE(push.has_value());
  EXPECT_EQ(push->type, serve::MsgType::kRollupDelta);
  EXPECT_EQ(push->sub_id, ack.value().sub_id);
  EXPECT_EQ(push->rollup.component, "system");
  EXPECT_EQ(push->rollup.metric, "node.cpu_util");
  EXPECT_FALSE(push->rollup.stat.empty());

  EXPECT_TRUE(client.rollup_unsub(ack.value().sub_id));
  EXPECT_FALSE(stack.serve()->has_rollup_subs());

  const auto obs = stack.obs_snapshot();
  EXPECT_GT(obs.counter("serve.rollup_queries"), 0u);
  EXPECT_GT(obs.counter("serve.rollup_deltas"), 0u);
}

TEST(StackRollup, WireQueryErrorsWhenRollupDisabled) {
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(cluster, parse("serve_port = 0\n"));
  ASSERT_NE(stack.serve(), nullptr);
  serve::ServeClient client;
  ASSERT_TRUE(client.connect(stack.serve()->port()));
  auto r = client.rollup_query("system", "node.cpu_util");
  EXPECT_FALSE(r.is_ok());
  auto s = client.rollup_sub("system", "node.cpu_util");
  EXPECT_FALSE(s.is_ok());
}

}  // namespace
}  // namespace hpcmon::stack
