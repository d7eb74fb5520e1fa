#include "store/tsdb.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "store_evict.hpp"

namespace hpcmon::store {
namespace {

using core::SeriesId;
using core::TimeRange;

constexpr SeriesId kS0{0};
constexpr SeriesId kS1{1};

TEST(TsdbTest, AppendAndQueryRange) {
  TimeSeriesStore store(4);  // tiny chunks to exercise sealing
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(store.append(kS0, i * core::kSecond, i * 1.0));
  }
  const auto pts = store.query_range(kS0, {2 * core::kSecond, 7 * core::kSecond});
  ASSERT_EQ(pts.size(), 5u);
  EXPECT_EQ(pts.front().time, 2 * core::kSecond);
  EXPECT_EQ(pts.back().time, 6 * core::kSecond);
  EXPECT_DOUBLE_EQ(pts.back().value, 6.0);
  // Full range spans sealed chunks + head.
  EXPECT_EQ(store.query_range(kS0, {0, core::kDay}).size(), 10u);
}

TEST(TsdbTest, RejectsOutOfOrder) {
  TimeSeriesStore store;
  EXPECT_TRUE(store.append(kS0, 100, 1.0));
  EXPECT_FALSE(store.append(kS0, 100, 2.0));  // duplicate time
  EXPECT_FALSE(store.append(kS0, 50, 3.0));   // older
  EXPECT_TRUE(store.append(kS0, 101, 4.0));
  // Other series are unaffected.
  EXPECT_TRUE(store.append(kS1, 50, 5.0));
}

TEST(TsdbTest, DuplicateTimestampRejectedAtChunkSealBoundary) {
  // last_time must survive the head-vector -> sealed-chunk handoff: a
  // duplicate of the final point of a just-sealed chunk is still rejected.
  TimeSeriesStore store(4);
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(store.append(kS0, i * core::kSecond, i * 1.0));
  }
  ASSERT_EQ(store.stats().sealed_chunks, 1u);  // head just sealed
  EXPECT_FALSE(store.append(kS0, 4 * core::kSecond, 99.0));  // dup of sealed tail
  EXPECT_FALSE(store.append(kS0, 3 * core::kSecond, 99.0));
  EXPECT_TRUE(store.append(kS0, 5 * core::kSecond, 5.0));
  // query_range can never return duplicate timestamps.
  const auto pts = store.query_range(kS0, {0, core::kDay});
  ASSERT_EQ(pts.size(), 5u);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LT(pts[i - 1].time, pts[i].time);
  }
}

TEST(TsdbTest, DuplicateTimestampRejectedAfterEviction) {
  // Eviction removes points but not ordering history: re-appending an
  // evicted timestamp must still fail, or re-ingest after retention would
  // silently reorder the series.
  TimeSeriesStore store(4);
  for (int i = 1; i <= 9; ++i) store.append(kS0, i * core::kSecond, i * 1.0);
  const auto moved = evict::sealed_before(store, 5 * core::kSecond).size();
  ASSERT_GT(moved, 0u);
  EXPECT_FALSE(store.append(kS0, 2 * core::kSecond, 99.0));  // evicted region
  EXPECT_FALSE(store.append(kS0, 9 * core::kSecond, 99.0));  // dup of live tail
  EXPECT_TRUE(store.append(kS0, 10 * core::kSecond, 10.0));
}

TEST(TsdbTest, AppendBatchCountsDuplicatesAsRejected) {
  TimeSeriesStore store;
  std::vector<core::Sample> batch = {
      {kS0, 100, 1.0}, {kS0, 100, 2.0},  // duplicate inside one batch
      {kS0, 101, 3.0}, {kS0, 90, 4.0},   // out-of-order straggler
      {kS1, 100, 5.0},
  };
  EXPECT_EQ(store.append_batch(batch), 3u);  // 2 of 5 rejected
  EXPECT_EQ(store.query_range(kS0, {0, core::kDay}).size(), 2u);
  EXPECT_EQ(store.query_range(kS1, {0, core::kDay}).size(), 1u);
}

TEST(TsdbTest, LatestAcrossSealedAndHead) {
  TimeSeriesStore store(4);
  EXPECT_FALSE(store.latest(kS0).has_value());
  for (int i = 0; i < 4; ++i) store.append(kS0, i + 1, i * 1.0);  // sealed
  const auto latest = store.latest(kS0);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->time, 4);
  store.append(kS0, 10, 9.0);
  EXPECT_EQ(store.latest(kS0)->time, 10);
}

TEST(TsdbTest, Aggregates) {
  TimeSeriesStore store;
  for (int i = 1; i <= 5; ++i) store.append(kS0, i, static_cast<double>(i));
  const TimeRange all{0, 100};
  EXPECT_DOUBLE_EQ(*store.aggregate(kS0, all, Agg::kSum), 15.0);
  EXPECT_DOUBLE_EQ(*store.aggregate(kS0, all, Agg::kMean), 3.0);
  EXPECT_DOUBLE_EQ(*store.aggregate(kS0, all, Agg::kMin), 1.0);
  EXPECT_DOUBLE_EQ(*store.aggregate(kS0, all, Agg::kMax), 5.0);
  EXPECT_DOUBLE_EQ(*store.aggregate(kS0, all, Agg::kCount), 5.0);
  EXPECT_DOUBLE_EQ(*store.aggregate(kS0, all, Agg::kLast), 5.0);
  EXPECT_FALSE(store.aggregate(kS0, {50, 60}, Agg::kSum).has_value());
  EXPECT_FALSE(store.aggregate(kS1, all, Agg::kSum).has_value());
}

TEST(TsdbTest, Downsample) {
  TimeSeriesStore store;
  // 1-second data for 10 minutes.
  for (int i = 0; i < 600; ++i) {
    store.append(kS0, i * core::kSecond, static_cast<double>(i));
  }
  const auto buckets =
      store.downsample(kS0, {0, 600 * core::kSecond}, core::kMinute, Agg::kMean);
  ASSERT_EQ(buckets.size(), 10u);
  EXPECT_EQ(buckets[0].time, 0);
  EXPECT_DOUBLE_EQ(buckets[0].value, 29.5);  // mean of 0..59
  EXPECT_EQ(buckets[9].time, 9 * core::kMinute);
}

TEST(TsdbTest, EvictBeforeMovesSealedChunksOnly) {
  TimeSeriesStore store(10);
  for (int i = 0; i < 35; ++i) {
    store.append(kS0, i * core::kMinute, static_cast<double>(i));
  }
  // 3 sealed chunks (0-9, 10-19, 20-29) + 5 head points.
  const auto evicted = evict::sealed_before(store, 25 * core::kMinute);
  EXPECT_EQ(evicted.size(), 2u);  // chunk 20-29 still overlaps the cutoff
  std::size_t archived_points = 0;
  for (const auto& [sid, c] : evicted) archived_points += c->count();
  EXPECT_EQ(archived_points, 20u);
  // Remaining data still queryable.
  EXPECT_EQ(store.query_range(kS0, {0, core::kDay}).size(), 15u);
}

TEST(TsdbTest, StatsReflectContent) {
  TimeSeriesStore store(8);
  for (int i = 0; i < 20; ++i) store.append(kS0, i, 1.0);
  for (int i = 0; i < 3; ++i) store.append(kS1, i, 1.0);
  const auto st = store.stats();
  EXPECT_EQ(st.series, 2u);
  EXPECT_EQ(st.points, 23u);
  EXPECT_EQ(st.sealed_chunks, 2u);
  EXPECT_EQ(st.head_points, 4u + 3u);
  EXPECT_GT(st.compressed_bytes, 0u);
}

TEST(TsdbTest, ConcurrentAppendAndQuery) {
  TimeSeriesStore store(64);
  std::thread writer([&store] {
    for (int i = 0; i < 5000; ++i) {
      store.append(kS0, i + 1, static_cast<double>(i));
    }
  });
  std::size_t reads = 0;
  for (int i = 0; i < 50; ++i) {
    const auto pts = store.query_range(kS0, {0, 10000});
    reads += pts.size();
    // Values seen must be consistent with their timestamps.
    for (const auto& p : pts) {
      EXPECT_DOUBLE_EQ(p.value, static_cast<double>(p.time - 1));
    }
  }
  writer.join();
  EXPECT_EQ(store.query_range(kS0, {0, 10000}).size(), 5000u);
  (void)reads;
}

}  // namespace
}  // namespace hpcmon::store
