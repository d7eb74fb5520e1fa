// MonitoringStack + serving tier: the network front door is off by default,
// turns on behind serve_port, answers from the live store, pushes deltas from
// real collection sweeps, and exposes the admin surface end-to-end.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "resilience/fault.hpp"
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

core::Config parse(const std::string& text) {
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

// An aggregator must not ack a relayed batch its WAL could not log: the ack
// tells the node it may forget the batch. Here the aggregator's third WAL
// append tears, which poisons the log until it rotates. Each append meanwhile
// is refused, and the node's relay client keeps the batch, backs off and
// resends. After an admin rotate every node sample lands exactly once, and
// the aggregator's WAL replays to the same store.
TEST(StackServe, RelayAppendsTheAggregatorCannotLogAreRefusedThenResent) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "stack_serve_relay_refusal";
  fs::remove_all(dir);
  const std::string quiet =
      "sample_interval_s = 30\n"
      "probe_interval_s = 0\n"
      "health_interval_s = 0\n";
  const std::string agg_config =
      quiet + "serve_port = 0\nwal_path = " + dir + "/agg_wal\n";
  resilience::FaultSpec spec;
  spec.fs_short_write_at = 3;
  resilience::FaultPlan plan(5, spec);
  sim::Cluster agg_cluster(cluster_params());
  MonitoringStack aggregator(agg_cluster, parse(agg_config), &plan);
  ASSERT_NE(aggregator.serve(), nullptr);
  const auto port = aggregator.serve()->port();

  sim::Cluster cluster(cluster_params());
  MonitoringStack node(
      cluster, parse(quiet + "relay_upstream = " + std::to_string(port) + "\n"));
  cluster.run_for(10 * core::kMinute);

  const auto refusals = [&] {
    return aggregator.obs_snapshot().counter("serve.relay_refusals");
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (refusals() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(refusals(), 0u);
  // The client resends after a pause that doubles from backoff_ms (50 ms),
  // and only the refused append, so half a second of a poisoned WAL costs a
  // handful of refusals and resends, not a busy loop of them.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const auto refused = refusals();
  const auto node_snap = node.obs_snapshot();
  std::printf("while the aggregator WAL was poisoned: %llu refusals, %llu "
              "appends resent\n",
              static_cast<unsigned long long>(refused),
              static_cast<unsigned long long>(
                  node_snap.counter("relay.resent_batches")));
  EXPECT_LE(refused, 8u);
  EXPECT_LE(node_snap.counter("relay.resent_batches"), refused);
  EXPECT_EQ(node_snap.counter("relay.rejected_batches"), 0u);
  EXPECT_EQ(node_snap.counter("relay.shed_batches"), 0u);
  EXPECT_GT(node.relay()->pending(), 0u);

  serve::ServeClient admin;
  ASSERT_TRUE(admin.connect(port));
  ASSERT_TRUE(admin.wal_rotate());
  ASSERT_TRUE(node.relay()->drain_for(10000));

  // Exactly once: every submitted sample was applied, none twice.
  const auto agg_snap = aggregator.obs_snapshot();
  const auto submitted = node.obs_snapshot().counter("relay.submitted_samples");
  EXPECT_GT(submitted, 0u);
  EXPECT_EQ(agg_snap.counter("serve.relay_applied_samples"), submitted);
  EXPECT_EQ(agg_snap.counter("resilience.dead_letters"), 0u);
  const core::TimeRange all{0, core::kDay};
  std::size_t points = 0;
  for (std::uint32_t i = 0; i < cluster.registry().series_count(); ++i) {
    const core::SeriesId id{i};
    const auto want = node.sharded_store()->query_range(id, all);
    EXPECT_EQ(aggregator.sharded_store()->query_range(id, all), want) << i;
    points += want.size();
  }
  EXPECT_EQ(points, submitted);

  // The aggregator's WAL holds every applied batch once, in seq order.
  aggregator.shutdown();
  sim::Cluster replay_cluster(cluster_params());
  MonitoringStack replayed(replay_cluster, parse(agg_config));
  for (std::uint32_t i = 0; i < cluster.registry().series_count(); ++i) {
    const core::SeriesId id{i};
    EXPECT_EQ(replayed.sharded_store()->query_range(id, all),
              aggregator.sharded_store()->query_range(id, all))
        << i;
  }
  replayed.shutdown();
  node.shutdown();
  fs::remove_all(dir);
}

// An aggregator that runs its own timeline shares its WAL between two
// threads: the serve reactor logs relayed batches, and the timeline logs the
// aggregator's own sweeps and self-heals the log every
// degradation_interval_s. Its third WAL append (a relayed batch) tears,
// which poisons the log until the heal rotates it; relayed batches refused
// meanwhile are resent. Under tsan this checks that the two threads share
// the log safely.
TEST(StackServe, AnAggregatorHealsItsWalWhileANodeRelaysToIt) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "stack_serve_heal_race";
  fs::remove_all(dir);
  const std::string quiet =
      "sample_interval_s = 30\n"
      "probe_interval_s = 0\n"
      "health_interval_s = 0\n";
  resilience::FaultSpec spec;
  spec.fs_short_write_at = 3;
  resilience::FaultPlan plan(9, spec);
  sim::Cluster agg_cluster(cluster_params());
  MonitoringStack aggregator(
      agg_cluster,
      parse(quiet + "serve_port = 0\nwal_path = " + dir + "/agg_wal\n"),
      &plan);
  ASSERT_NE(aggregator.serve(), nullptr);
  sim::Cluster cluster(cluster_params());
  MonitoringStack node(
      cluster, parse(quiet + "relay_upstream = " +
                     std::to_string(aggregator.serve()->port()) + "\n"));

  cluster.run_for(10 * core::kMinute);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (aggregator.obs_snapshot().counter("serve.relay_refusals") == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread timeline([&] { agg_cluster.run_for(2 * core::kHour); });
  cluster.run_for(2 * core::kHour);
  timeline.join();
  ASSERT_TRUE(node.relay()->drain_for(10000));

  const auto node_snap = node.obs_snapshot();
  const auto agg_snap = aggregator.obs_snapshot();
  std::printf("relay refusals %llu, dead letters %llu, redelivered %llu\n",
              static_cast<unsigned long long>(
                  agg_snap.counter("serve.relay_refusals")),
              static_cast<unsigned long long>(
                  agg_snap.counter("resilience.dead_letters")),
              static_cast<unsigned long long>(
                  agg_snap.counter("resilience.redelivered")));
  EXPECT_EQ(plan.injected().fs_short_writes, 1u);
  EXPECT_GT(agg_snap.counter("serve.relay_refusals"), 0u);
  EXPECT_FALSE(aggregator.wal()->poisoned());
  EXPECT_EQ(aggregator.wal()->dead_letter_count(), 0u);
  // Every acked batch was applied once, whatever the interleaving.
  EXPECT_GT(node_snap.counter("relay.acked_batches"), 0u);
  EXPECT_EQ(agg_snap.counter("serve.relay_applied_batches"),
            node_snap.counter("relay.acked_batches"));
  EXPECT_EQ(node_snap.counter("relay.rejected_batches"), 0u);
  node.shutdown();
  aggregator.shutdown();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hpcmon::stack
