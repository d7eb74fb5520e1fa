// The obs catalog as a contract. The degradation control loop, the chaos
// harness's verdict, status() and e2ebench read hpcmon's self-telemetry by
// instrument name, and ObsSnapshot::counter() reads an absent name as 0, so
// a renamed instrument would silently zero the reading instead of failing.
// This test builds the stacks those readers run on — an aggregator, and a
// node with every tier on, relaying to it — and pins each name they read,
// with its kind, in the node's obs_snapshot().
#include "stack/stack.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

namespace hpcmon::stack {
namespace {

namespace fs = std::filesystem;
using obs::InstrumentKind;

struct Reading {
  const char* name;
  InstrumentKind kind;
};

constexpr auto kCounter = InstrumentKind::kCounter;
constexpr auto kGauge = InstrumentKind::kGauge;
constexpr auto kHistogram = InstrumentKind::kHistogram;

// resilience::HealthSignalAssembler::assemble.
constexpr Reading kHealthSignals[] = {
    {"ingest.queue_fill", kGauge},
    {"resilience.dlq_fill", kGauge},
    {"resilience.breaker_open_frac", kGauge},
    {"compact.disk_fill", kGauge},
    {"store.cache_entries", kGauge},
    {"resilience.wal_append_failures", kCounter},
    {"ingest.dropped_samples", kCounter},
    {"ingest.rejected_samples", kCounter},
    {"ingest.shed_critical_samples", kCounter},
    {"ingest.shed_standard_samples", kCounter},
    {"ingest.shed_bulk_samples", kCounter},
};

// The chaos harness's ledger (run_scenario's verdict).
constexpr Reading kChaosLedger[] = {
    {"ingest.dropped_critical_samples", kCounter},
    {"ingest.rejected_critical_samples", kCounter},
    {"ingest.dropped_bulk_samples", kCounter},
    {"ingest.rejected_bulk_samples", kCounter},
    {"resilience.degradation.transitions", kCounter},
};

// e2ebench's failure tally and per-layer breakdown.
constexpr Reading kBenchmark[] = {
    {"resilience.dead_letters", kCounter},
    {"resilience.wal_records", kCounter},
    {"resilience.wal_bytes", kCounter},
    {"resilience.wal_samples", kCounter},
    {"ingest.block_wait_us", kCounter},
    {"ingest.blocked_pushes", kCounter},
    {"ingest.coalesced_batches", kCounter},
    {"ingest.appends", kCounter},
    {"store.summary_chunks", kCounter},
    {"store.cursor_chunks", kCounter},
    {"store.cache_hits", kCounter},
    {"store.cache_misses", kCounter},
    {"compact.samples_tiered", kCounter},
    {"rollup.recomputes", kCounter},
    {"rollup.ticks", kCounter},
    {"relay.acked_samples", kCounter},
    {"relay.acked_batches", kCounter},
    {"stage.queue_wait_us", kHistogram},
    {"stage.store_append_us", kHistogram},
    {"serve.request_us", kHistogram},
    {"relay.ack_rtt_us", kHistogram},
};

// The stage histograms each tier times itself into, read from hpcmon.self.*
// by operators.
constexpr Reading kStages[] = {
    {"stage.sampler_sweep_us", kHistogram},
    {"stage.shard_worker_us", kHistogram},
    {"stage.query_summary_us", kHistogram},
    {"stage.query_cursor_us", kHistogram},
    {"stage.query_cache_us", kHistogram},
    {"serve.fanout_us", kHistogram},
    {"rollup.tick_us", kHistogram},
};

sim::ClusterParams cluster_params(std::uint64_t seed) {
  sim::ClusterParams p;
  p.shape.cabinets = 1;
  p.shape.chassis_per_cabinet = 2;
  p.shape.blades_per_chassis = 2;
  p.tick = 5 * core::kSecond;
  p.seed = seed;
  return p;
}

core::Config parse(const std::string& text) {
  auto r = core::Config::parse(text);
  EXPECT_TRUE(r.is_ok());
  return r.value();
}

void expect_cataloged(const obs::ObsSnapshot& snap, const Reading& r) {
  const auto* v = snap.find(r.name);
  ASSERT_NE(v, nullptr) << r.name << " is not in the catalog";
  EXPECT_EQ(v->kind, r.kind) << r.name;
}

TEST(ObsCatalogTest, NodeStackExportsEveryNameItsReadersUse) {
  const auto dir = fs::temp_directory_path() / "hpcmon_obs_catalog";
  fs::remove_all(dir);
  const std::string quiet =
      "sample_interval_s = 30\n"
      "probe_interval_s = 0\n"
      "health_interval_s = 0\n";

  sim::Cluster agg_cluster(cluster_params(7));
  MonitoringStack aggregator(agg_cluster, parse(quiet + "serve_port = 0\n"));

  sim::Cluster cluster(cluster_params(3));
  MonitoringStack node(
      cluster,
      parse(quiet + "wal_path = " + (dir / "wal").string() +
            "\n"
            "tier_dir = " +
            (dir / "tiers").string() +
            "\n"
            "ingest_shards = 2\n"
            "rollup_enable = 1\n"
            "serve_port = 0\n"
            "relay_upstream = " +
            std::to_string(aggregator.serve()->port()) +
            "\n"
            "breaker_threshold = 3\n"
            "degradation = 1\n"
            "degradation_interval_s = 30\n"));
  cluster.run_for(5 * core::kMinute);
  node.drain_ingest();
  ASSERT_TRUE(node.relay()->drain_for(5000));

  const auto snap = node.obs_snapshot();
  for (const auto& r : kHealthSignals) expect_cataloged(snap, r);
  for (const auto& r : kChaosLedger) expect_cataloged(snap, r);
  for (const auto& r : kBenchmark) expect_cataloged(snap, r);
  for (const auto& r : kStages) expect_cataloged(snap, r);
  // The readings are live, not merely registered: the node's sweeps went
  // through the WAL, the shard workers and the relay.
  EXPECT_GT(snap.counter("resilience.wal_records"), 0u);
  EXPECT_GT(snap.counter("ingest.appends"), 0u);
  EXPECT_GT(snap.counter("relay.acked_batches"), 0u);
  EXPECT_GT(snap.counter("resilience.degradation.evaluations"), 0u);

  node.shutdown();
  aggregator.shutdown();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hpcmon::stack
