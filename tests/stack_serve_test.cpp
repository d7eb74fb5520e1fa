// MonitoringStack + serving tier: the network front door is off by default,
// turns on behind serve_port, answers from the live store, pushes deltas from
// real collection sweeps, and exposes the admin surface end-to-end.
#include <gtest/gtest.h>

#include <cstdio>

#include "serve/client.hpp"
#include "stack/stack.hpp"

namespace hpcmon::stack {
namespace {

sim::ClusterParams cluster_params() {
  sim::ClusterParams p;
  p.shape.cabinets = 1;
  p.shape.chassis_per_cabinet = 1;
  p.shape.blades_per_chassis = 2;
  p.shape.nodes_per_blade = 4;
  p.tick = 5 * core::kSecond;
  p.seed = 77;
  return p;
}

core::Config parse(const char* text) {
  auto r = core::Config::parse(text);
  EXPECT_TRUE(r.is_ok());
  return r.value();
}

TEST(StackServe, OffByDefault) {
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(cluster, core::Config{});
  EXPECT_EQ(stack.serve(), nullptr);
}

TEST(StackServe, ServesLiveStoreOverTheWire) {
  sim::Cluster cluster(cluster_params());
  MonitoringStack stack(cluster, parse("serve_port = 0\n"));
  ASSERT_NE(stack.serve(), nullptr);
  ASSERT_TRUE(stack.serve()->running()) << stack.serve()->error();
  cluster.run_for(10 * core::kMinute);

  serve::ServeClient client;
  ASSERT_TRUE(client.connect(stack.serve()->port()));
  const auto series = cluster.registry().series("node.cpu_util",
                                                cluster.topology().node(0));
  const core::TimeRange range{0, core::kDay};
  auto remote = client.query_range(series, range);
  ASSERT_TRUE(remote.is_ok()) << remote.message();
  // Byte-identical to the in-process read of the same store.
  EXPECT_EQ(remote.value(), stack.sharded_store()->query_range(series, range));
  EXPECT_FALSE(remote.value().empty());

  // Admin: status over the wire equals the in-process status line shape.
  auto st = client.status();
  ASSERT_TRUE(st.is_ok());
  EXPECT_NE(st.value().find("series="), std::string::npos);
  // No WAL configured: rotate reports failure instead of pretending.
  EXPECT_FALSE(client.wal_rotate());

  // Subscription fed by real collection sweeps.
  auto ack = client.subscribe("node.cpu_util@*");
  ASSERT_TRUE(ack.is_ok());
  EXPECT_GE(ack.value().matched.size(), 8u);  // every node
  auto snap = client.poll_push(2000);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->type, serve::MsgType::kSnapshot);
  cluster.run_for(5 * core::kMinute);
  bool saw_delta = false;
  while (auto push = client.poll_push(500)) {
    if (push->type == serve::MsgType::kDelta && !push->batch.samples.empty()) {
      saw_delta = true;
      break;
    }
  }
  EXPECT_TRUE(saw_delta);

  // serve.* instruments ride the stack's shared obs plane.
  const auto obs = stack.obs_snapshot();
  EXPECT_GT(obs.counter("serve.requests"), 0u);
  EXPECT_GT(obs.counter("serve.deltas"), 0u);
}

TEST(StackServe, AdminModeOverrideAndWalRotate) {
  sim::Cluster cluster(cluster_params());
  const std::string wal_dir = ::testing::TempDir() + "stack_serve_wal";
  MonitoringStack stack(cluster, parse(("serve_port = 0\n"
                                        "ingest_shards = 2\n"
                                        "degradation = 1\n"
                                        "wal_path = " +
                                        wal_dir + "\n")
                                           .c_str()));
  ASSERT_NE(stack.serve(), nullptr);
  cluster.run_for(5 * core::kMinute);
  stack.drain_ingest();

  serve::ServeClient client;
  ASSERT_TRUE(client.connect(stack.serve()->port()));
  // Degradation override lands on the ingest door...
  ASSERT_TRUE(client.set_mode(core::DegradationMode::kShedBulk));
  EXPECT_EQ(stack.ingest_pipeline()->mode(), core::DegradationMode::kShedBulk);
  // ...and nullopt releases back to NORMAL.
  ASSERT_TRUE(client.set_mode(std::nullopt));
  EXPECT_EQ(stack.ingest_pipeline()->mode(), core::DegradationMode::kNormal);
  // WAL rotate works when a WAL exists.
  EXPECT_TRUE(client.wal_rotate());
  // Shutdown stops the server before tearing down the stores.
  stack.shutdown();
  EXPECT_FALSE(stack.serve()->running());
}

}  // namespace
}  // namespace hpcmon::stack
