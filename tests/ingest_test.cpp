// hpcmon::ingest: ShardedTimeSeriesStore routing + differential equivalence,
// IngestPipeline overload policies (deterministic, exact counters), threaded
// end-to-end ingest, self-metrics, and MonitoringStack wiring.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <string_view>
#include <thread>

#include "core/config.hpp"
#include "core/registry.hpp"
#include "core/rng.hpp"
#include "ingest/pipeline.hpp"
#include "ingest/sharded_store.hpp"
#include "obs/exporter.hpp"
#include "sim/cluster.hpp"
#include "stack/stack.hpp"
#include "store_evict.hpp"

namespace hpcmon::ingest {
namespace {

using core::Sample;
using core::SampleBatch;
using core::SeriesId;
using core::TimeRange;

constexpr TimeRange kAll{0, core::kDay};

// Deterministic multi-series workload: `series` series, `points` points each,
// interleaved into per-sweep batches the way samplers emit them.
std::vector<SampleBatch> make_sweeps(std::uint32_t series, int points,
                                     double jitter_seed = 7.0) {
  std::vector<SampleBatch> sweeps;
  core::Rng rng(static_cast<std::uint64_t>(jitter_seed));
  for (int p = 0; p < points; ++p) {
    SampleBatch b;
    b.sweep_time = (p + 1) * core::kMinute;
    for (std::uint32_t s = 0; s < series; ++s) {
      b.samples.push_back(
          {SeriesId{s}, b.sweep_time, s * 100.0 + p + rng.uniform(0.0, 0.5)});
    }
    sweeps.push_back(std::move(b));
  }
  return sweeps;
}

TEST(ShardedStoreTest, RoutesSeriesToStableShards) {
  ShardedTimeSeriesStore store(4);
  EXPECT_EQ(store.shard_count(), 4u);
  for (std::uint32_t s = 0; s < 64; ++s) {
    const auto shard = store.shard_of(SeriesId{s});
    EXPECT_LT(shard, 4u);
    EXPECT_EQ(shard, store.shard_of(SeriesId{s}));  // stable
  }
  // The hash spreads dense ids over every shard.
  std::vector<int> counts(4, 0);
  for (std::uint32_t s = 0; s < 64; ++s) ++counts[store.shard_of(SeriesId{s})];
  for (int c : counts) EXPECT_GT(c, 0);
}

TEST(ShardedStoreTest, DifferentialIdenticalToSingleStore) {
  // Acceptance: sharded query results byte-identical to the single store on
  // the same ingest — every query flavour, every series.
  store::TimeSeriesStore single(32);
  ShardedTimeSeriesStore sharded(4, 32);
  const auto sweeps = make_sweeps(17, 300);
  for (const auto& b : sweeps) {
    EXPECT_EQ(single.append_batch(b.samples), sharded.append_batch(b.samples));
  }
  const TimeRange mid{40 * core::kMinute, 250 * core::kMinute};
  for (std::uint32_t s = 0; s < 17; ++s) {
    const SeriesId id{s};
    const auto a = single.query_range(id, mid);
    const auto b = sharded.query_range(id, mid);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a, b);
    // Byte-identical, literally.
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          a.size() * sizeof(core::TimedValue)),
              0);
    EXPECT_EQ(single.latest(id), sharded.latest(id));
    EXPECT_EQ(single.aggregate(id, mid, store::Agg::kSum),
              sharded.aggregate(id, mid, store::Agg::kSum));
    EXPECT_EQ(single.downsample(id, kAll, core::kHour, store::Agg::kMean),
              sharded.downsample(id, kAll, core::kHour, store::Agg::kMean));
    EXPECT_EQ(single.has_series(id), sharded.has_series(id));
  }
  // Merged stats are exact: shards hold disjoint series.
  const auto st_a = single.stats();
  const auto st_b = sharded.stats();
  EXPECT_EQ(st_a.series, st_b.series);
  EXPECT_EQ(st_a.points, st_b.points);
  EXPECT_EQ(st_a.sealed_chunks, st_b.sealed_chunks);
  EXPECT_EQ(st_a.head_points, st_b.head_points);
  EXPECT_EQ(st_a.compressed_bytes, st_b.compressed_bytes);
}

TEST(ShardedStoreTest, RejectsDuplicatesAndOutOfOrderLikeSingleStore) {
  ShardedTimeSeriesStore store(3);
  const SeriesId id{5};
  EXPECT_TRUE(store.append(id, 100, 1.0));
  EXPECT_FALSE(store.append(id, 100, 2.0));  // duplicate timestamp
  EXPECT_FALSE(store.append(id, 99, 3.0));   // out of order
  EXPECT_TRUE(store.append(id, 101, 4.0));
  EXPECT_EQ(store.query_range(id, kAll).size(), 2u);
}

TEST(ShardedStoreTest, EvictScatterGathers) {
  store::TimeSeriesStore single(10);
  ShardedTimeSeriesStore sharded(4, 10);
  for (const auto& b : make_sweeps(8, 120)) {
    single.append_batch(b.samples);
    sharded.append_batch(b.samples);
  }
  const auto points = [](const evict::Evicted& chunks) {
    std::size_t n = 0;
    for (const auto& [sid, c] : chunks) n += c->count();
    return n;
  };
  const auto cutoff = 80 * core::kMinute;
  const auto a = evict::sealed_before(single, cutoff);
  const auto b = evict::sealed_before(sharded, cutoff);
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(points(a), points(b));
  EXPECT_GT(a.size(), 0u);
}

// -- Overload policies: deterministic, exact counters -------------------------
// The pipeline is constructed WITHOUT start(), so queues are static and every
// policy decision is exactly predictable.

SampleBatch one_series_batch(std::uint32_t series, int k, std::size_t samples) {
  SampleBatch b;
  b.sweep_time = (k + 1) * core::kSecond;
  for (std::size_t i = 0; i < samples; ++i) {
    b.samples.push_back({SeriesId{series},
                         b.sweep_time + static_cast<core::TimePoint>(i),
                         1.0 * k});
  }
  return b;
}

TEST(IngestPolicyTest, RejectCountsAreExact) {
  ShardedTimeSeriesStore store(1);
  IngestPipeline pipe(store, {.queue_capacity = 4,
                              .policy = OverloadPolicy::kReject});
  // Fill the queue: 4 batches of 3 samples admitted.
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(pipe.submit(one_series_batch(0, k, 3)), 3u);
  }
  // 5 more must be rejected at the door, samples counted exactly.
  for (int k = 4; k < 9; ++k) {
    EXPECT_EQ(pipe.submit(one_series_batch(0, k, 3)), 0u);
  }
  const auto m = obs::snapshot_of(pipe);
  EXPECT_EQ(m.counter("ingest.submitted_batches"), 9u);
  EXPECT_EQ(m.counter("ingest.submitted_samples"), 27u);
  EXPECT_EQ(m.counter("ingest.enqueued_batches"), 4u);
  EXPECT_EQ(m.counter("ingest.rejected_batches"), 5u);
  EXPECT_EQ(m.counter("ingest.rejected_samples"), 15u);
  EXPECT_EQ(m.counter("ingest.dropped_samples"), 0u);
  EXPECT_EQ(m.counter("ingest.blocked_pushes"), 0u);
  EXPECT_EQ(m.gauge("ingest.queue_hwm"), 4.0);
  // Now run the workers: the 4 queued batches (12 samples) all land; the
  // rejected ones are gone for good.
  pipe.start();
  pipe.drain();
  const auto m2 = obs::snapshot_of(pipe);
  EXPECT_EQ(m2.counter("ingest.accepted_samples"), 12u);
  EXPECT_EQ(store.stats().points, 12u);
}

TEST(IngestPolicyTest, DropOldestCountsAreExact) {
  ShardedTimeSeriesStore store(1);
  IngestPipeline pipe(store, {.queue_capacity = 4,
                              .policy = OverloadPolicy::kDropOldest});
  for (int k = 0; k < 4; ++k) pipe.submit(one_series_batch(0, k, 2));
  // Each further submit evicts exactly the oldest queued batch.
  for (int k = 4; k < 10; ++k) {
    EXPECT_EQ(pipe.submit(one_series_batch(0, k, 2)), 2u);  // admitted
  }
  const auto m = obs::snapshot_of(pipe);
  EXPECT_EQ(m.counter("ingest.enqueued_batches"), 10u);
  EXPECT_EQ(m.counter("ingest.dropped_batches"), 6u);
  EXPECT_EQ(m.counter("ingest.dropped_samples"), 12u);
  EXPECT_EQ(m.counter("ingest.rejected_samples"), 0u);
  pipe.start();
  pipe.drain();
  // Survivors are the NEWEST 4 batches (k = 6..9): drop-oldest keeps fresh
  // telemetry, and their later timestamps still append in order.
  const auto m2 = obs::snapshot_of(pipe);
  EXPECT_EQ(m2.counter("ingest.accepted_samples"), 8u);
  const auto pts = store.query_range(SeriesId{0}, kAll);
  ASSERT_EQ(pts.size(), 8u);
  EXPECT_EQ(pts.front().time, 7 * core::kSecond);  // k=6 sweep
  EXPECT_DOUBLE_EQ(pts.back().value, 9.0);         // k=9 batch
}

TEST(IngestPolicyTest, BlockBackpressureIsLosslessAndCounted) {
  ShardedTimeSeriesStore store(1);
  IngestPipeline pipe(store, {.queue_capacity = 2,
                              .policy = OverloadPolicy::kBlock});
  for (int k = 0; k < 2; ++k) pipe.submit(one_series_batch(0, k, 1));
  // Workers are NOT running, so the queue stays full and the next submit
  // must park in the blocking push. blocked_pushes is counted on ENTRY to
  // the wait, so observing it reach 1 proves the producer is stalled —
  // deterministically, before any worker exists to free space.
  std::thread producer([&pipe] { pipe.submit(one_series_batch(0, 2, 1)); });
  while (obs::snapshot_of(pipe).counter("ingest.blocked_pushes") < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto stalled = obs::snapshot_of(pipe);
  // Exact: the one parked producer.
  EXPECT_EQ(stalled.counter("ingest.blocked_pushes"), 1u);
  EXPECT_EQ(stalled.counter("ingest.enqueued_batches"), 2u);
  EXPECT_EQ(stalled.counter("ingest.dropped_samples"), 0u);
  EXPECT_EQ(stalled.counter("ingest.rejected_samples"), 0u);
  pipe.start();  // workers free space; the parked push completes
  producer.join();
  for (int k = 3; k < 8; ++k) pipe.submit(one_series_batch(0, k, 1));
  pipe.drain();
  const auto m = obs::snapshot_of(pipe);
  // Lossless: everything submitted was eventually accepted.
  EXPECT_EQ(m.counter("ingest.submitted_samples"), 8u);
  EXPECT_EQ(m.counter("ingest.accepted_samples"), 8u);
  EXPECT_EQ(m.counter("ingest.dropped_samples"), 0u);
  EXPECT_EQ(m.counter("ingest.rejected_samples"), 0u);
  // Later submits may stall again.
  EXPECT_GE(m.counter("ingest.blocked_pushes"), 1u);
  EXPECT_EQ(store.stats().points, 8u);
}

TEST(IngestPolicyTest, SubmitAfterStopIsRejected) {
  ShardedTimeSeriesStore store(2);
  IngestPipeline pipe(store, {.queue_capacity = 4});
  pipe.start();
  pipe.submit(one_series_batch(0, 0, 2));
  pipe.stop();
  EXPECT_EQ(pipe.submit(one_series_batch(0, 1, 3)), 0u);
  const auto m = obs::snapshot_of(pipe);
  EXPECT_EQ(m.counter("ingest.rejected_samples"), 3u);
  EXPECT_EQ(m.counter("ingest.accepted_samples"), 2u);
}

TEST(IngestPolicyTest, PolicyNamesRoundTrip) {
  EXPECT_EQ(policy_from_string("block"), OverloadPolicy::kBlock);
  EXPECT_EQ(policy_from_string("drop_oldest"), OverloadPolicy::kDropOldest);
  EXPECT_EQ(policy_from_string("reject"), OverloadPolicy::kReject);
  // No fallback: a misspelt policy is refused, not read as some default.
  EXPECT_EQ(policy_from_string("bogus"), std::nullopt);
  EXPECT_EQ(policy_from_string("drop-oldest"), std::nullopt);
  EXPECT_EQ(to_string(OverloadPolicy::kDropOldest), "drop_oldest");
}

// -- Threaded end-to-end ------------------------------------------------------

TEST(IngestPipelineTest, ConcurrentProducersMatchSynchronousIngest) {
  // 4 producers × disjoint series through the pipeline == the same sweeps
  // appended synchronously (per-series order is preserved end to end).
  constexpr std::uint32_t kSeries = 12;
  constexpr int kPoints = 200;
  const auto sweeps = make_sweeps(kSeries, kPoints);

  store::TimeSeriesStore reference(64);
  for (const auto& b : sweeps) reference.append_batch(b.samples);

  ShardedTimeSeriesStore sharded(4, 64);
  IngestPipeline pipe(sharded, {.queue_capacity = 8,
                                .policy = OverloadPolicy::kBlock});
  pipe.start();
  std::vector<std::thread> producers;
  for (std::uint32_t p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      // Producer p submits only its own series slice, in sweep order.
      for (const auto& sweep : sweeps) {
        SampleBatch mine;
        mine.sweep_time = sweep.sweep_time;
        for (const auto& s : sweep.samples) {
          if (core::raw(s.series) % 4 == p) mine.samples.push_back(s);
        }
        pipe.submit(mine);
      }
    });
  }
  for (auto& t : producers) t.join();
  pipe.drain();

  for (std::uint32_t s = 0; s < kSeries; ++s) {
    EXPECT_EQ(reference.query_range(SeriesId{s}, kAll),
              sharded.query_range(SeriesId{s}, kAll));
  }
  const auto m = obs::snapshot_of(pipe);
  EXPECT_EQ(m.counter("ingest.accepted_samples"),
            kSeries * static_cast<std::size_t>(kPoints));
  EXPECT_EQ(m.counter("ingest.out_of_order_samples"), 0u);
  EXPECT_GT(m.counter("ingest.appends"), 0u);
  // Every append recorded exactly one batch-size histogram entry.
  EXPECT_EQ(m.histogram("ingest.batch_samples")->count,
            m.counter("ingest.appends"));
}

TEST(IngestPipelineTest, QueueWaitNeverExceedsWallTime) {
  // Four producers keep one small queue full, so the worker coalesces
  // sub-batches enqueued after its first pop. Each one's queue wait must
  // still run from its own enqueue to its own pop, never a negative
  // duration wrapped to ~1.8e13 us.
  const auto t0 = std::chrono::steady_clock::now();
  constexpr std::uint32_t kProducers = 4;
  const auto sweeps = make_sweeps(256, 400);
  ShardedTimeSeriesStore sharded(1, 64);
  IngestConfig cfg;
  cfg.queue_capacity = 8;
  cfg.policy = OverloadPolicy::kBlock;
  cfg.max_coalesce_batches = 64;
  IngestPipeline pipe(sharded, cfg);
  pipe.start();
  std::vector<std::thread> producers;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (const auto& sweep : sweeps) {
        SampleBatch mine;
        mine.sweep_time = sweep.sweep_time;
        for (const auto& s : sweep.samples) {
          if (core::raw(s.series) % kProducers == p) mine.samples.push_back(s);
        }
        pipe.submit(mine);
      }
    });
  }
  for (auto& t : producers) t.join();
  pipe.drain();
  pipe.stop();
  const auto elapsed_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  const auto m = obs::snapshot_of(pipe);
  const auto* waits = m.histogram("stage.queue_wait_us");
  ASSERT_NE(waits, nullptr);
  EXPECT_EQ(waits->count, kProducers * sweeps.size());
  EXPECT_LE(waits->max, elapsed_us);
}

TEST(IngestMetricsTest, SelfMetricsBecomeSeries) {
  ShardedTimeSeriesStore store(2);
  IngestPipeline pipe(store, {.queue_capacity = 8});
  pipe.start();
  pipe.submit(one_series_batch(0, 0, 5));
  pipe.drain();

  core::MetricRegistry reg;
  const auto comp = reg.register_component(
      {"ingest.pipeline", core::ComponentKind::kService, core::kNoComponent});
  // The exporter renders one snapshot of the pipeline's instruments as
  // hpcmon.self.* samples.
  const auto samples = obs::ObsExporter().to_samples(
      obs::snapshot_of(pipe), reg, comp, 42 * core::kSecond);
  ASSERT_GE(samples.size(), 8u);
  // The monitor monitors itself: re-ingest its own counters.
  pipe.submit({42 * core::kSecond, comp, samples});
  pipe.drain();
  const auto acc = reg.find_metric("hpcmon.self.ingest.accepted_samples");
  ASSERT_TRUE(acc.has_value());
  const auto sid = reg.series(*acc, comp);
  const auto pts = store.query_range(sid, kAll);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_DOUBLE_EQ(pts[0].value, 5.0);  // counter value at snapshot time
  // Data dictionary carries units/descriptions for every ingest metric.
  EXPECT_NE(reg.describe_all().find("hpcmon.self.ingest.accepted_samples"),
            std::string::npos);
}

// -- MonitoringStack wiring ---------------------------------------------------

TEST(StackIngestTest, ConfigEnablesShardedIngestTier) {
  sim::ClusterParams params;
  params.shape.cabinets = 1;
  params.shape.chassis_per_cabinet = 1;
  params.shape.blades_per_chassis = 2;
  core::Config cfg;
  cfg.set_int("ingest_shards", 4);
  cfg.set_int("ingest_queue_cap", 64);
  cfg.set("ingest_policy", "block");
  cfg.set_int("probe_interval_s", 0);
  cfg.set_int("health_interval_s", 0);

  sim::Cluster cluster(params);
  stack::MonitoringStack stack(cluster, cfg);
  ASSERT_NE(stack.ingest_pipeline(), nullptr);
  ASSERT_NE(stack.sharded_store(), nullptr);
  EXPECT_EQ(stack.sharded_store()->shard_count(), 4u);

  cluster.run_for(10 * core::kMinute);
  stack.drain_ingest();
  EXPECT_GT(stack.sharded_store()->stats().points, 0u);
  // The stack's own counters were re-ingested as hpcmon.self.* series.
  const auto metric =
      cluster.registry().find_metric("hpcmon.self.ingest.accepted_samples");
  ASSERT_TRUE(metric.has_value());
  const auto comp = cluster.registry().find_component("hpcmon.self");
  ASSERT_TRUE(comp.has_value());
  const auto sid = cluster.registry().series(*metric, *comp);
  EXPECT_FALSE(
      stack.sharded_store()->query_range(sid, {0, core::kDay}).empty());
  // status() reports the ingest tier.
  EXPECT_NE(stack.status().find("shards=4"), std::string::npos);
  EXPECT_NE(stack.status().find("policy=block"), std::string::npos);
}

sim::ClusterParams small_cluster() {
  sim::ClusterParams params;
  params.shape.cabinets = 1;
  params.shape.chassis_per_cabinet = 1;
  params.shape.blades_per_chassis = 2;
  return params;
}

TEST(StackIngestTest, DefaultConfigStaysSynchronous) {
  core::Config cfg;
  cfg.set_int("probe_interval_s", 0);
  cfg.set_int("health_interval_s", 0);
  sim::Cluster cluster(small_cluster());
  stack::MonitoringStack stack(cluster, cfg);
  // No ingest tier: one store shard, appended inline by the sweep itself.
  EXPECT_EQ(stack.ingest_pipeline(), nullptr);
  ASSERT_NE(stack.sharded_store(), nullptr);
  EXPECT_EQ(stack.sharded_store()->shard_count(), 1u);
  cluster.run_for(5 * core::kMinute);
  // Visible without drain_ingest(): the last sweep is already stored.
  EXPECT_GT(stack.sharded_store()->stats().points, 0u);
  const auto sid = cluster.registry().series("power.system_w",
                                             cluster.topology().system());
  const auto latest = stack.sharded_store()->latest(sid);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->time, cluster.now());
}

TEST(StackIngestTest, InlineStoreMatchesOneShardPipeline) {
  // The inline default and a one-shard threaded ingest tier store the same
  // points for every series. Only hpcmon.self.* differs: the threaded stack
  // also exports its ingest.* instruments.
  core::Config threaded_cfg;
  threaded_cfg.set_int("ingest_shards", 1);
  sim::Cluster inline_cluster(small_cluster());
  sim::Cluster threaded_cluster(small_cluster());
  stack::MonitoringStack inline_stack(inline_cluster, core::Config{});
  stack::MonitoringStack threaded_stack(threaded_cluster, threaded_cfg);
  inline_cluster.run_for(20 * core::kMinute);
  threaded_cluster.run_for(20 * core::kMinute);
  threaded_stack.drain_ingest();

  const auto is_self = [](std::string_view metric) {
    return metric.starts_with("hpcmon.self.");
  };
  const auto& a = inline_cluster.registry();
  auto& b = threaded_cluster.registry();
  std::size_t threaded_series = 0;
  for (std::uint32_t i = 0; i < b.series_count(); ++i) {
    if (!is_self(b.metric(b.series_metric(SeriesId{i})).name)) {
      ++threaded_series;
    }
  }
  const auto b_interned = b.series_count();
  // Ids may differ across the two registries; map each series through its
  // metric and component names.
  const TimeRange all{0, inline_cluster.now() + core::kSecond};
  std::size_t compared = 0;
  for (std::uint32_t i = 0; i < a.series_count(); ++i) {
    const SeriesId sa{i};
    const auto& metric = a.metric(a.series_metric(sa)).name;
    if (is_self(metric)) continue;
    const auto comp =
        b.find_component(a.component(a.series_component(sa)).name);
    ASSERT_TRUE(comp.has_value()) << a.series_name(sa);
    const auto sb = b.series(metric, *comp);
    EXPECT_EQ(inline_stack.sharded_store()->query_range(sa, all),
              threaded_stack.sharded_store()->query_range(sb, all))
        << a.series_name(sa);
    ++compared;
  }
  EXPECT_EQ(b.series_count(), b_interned) << "series missing from one side";
  EXPECT_EQ(compared, threaded_series);
  EXPECT_GT(compared, 100u);
}

}  // namespace
}  // namespace hpcmon::ingest
