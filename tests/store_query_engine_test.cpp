// Query-engine tests: chunk summaries, streaming cursors, stepped
// aggregation, scan(), and the sharded scatter-gather fan-out. The key
// property throughout: the summary/cursor fast paths must be observationally
// equivalent to decompress-everything-then-filter.
#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.hpp"
#include "ingest/sharded_store.hpp"
#include "store/cursor.hpp"
#include "store/tsdb.hpp"

namespace hpcmon::store {
namespace {

using core::SeriesId;
using core::TimedValue;
using core::TimePoint;
using core::TimeRange;

constexpr SeriesId kS0{0};

std::vector<TimedValue> random_series(std::uint64_t seed, int n) {
  core::Rng rng(seed);
  std::vector<TimedValue> pts;
  TimePoint t = 0;
  double level = rng.uniform(50.0, 400.0);
  for (int i = 0; i < n; ++i) {
    t += core::kSecond + rng.uniform_int(0, core::kSecond);
    level += rng.normal(0.0, 2.0);
    pts.push_back({t, level});
  }
  return pts;
}

// TimeSeriesStore owns mutexes and can't move; fill in place.
void fill(TimeSeriesStore& store, const std::vector<TimedValue>& pts) {
  for (const auto& p : pts) EXPECT_TRUE(store.append(kS0, p.time, p.value));
}

// -- Summaries ----------------------------------------------------------------

TEST(ChunkSummaryTest, ComputedAtSealTime) {
  std::vector<TimedValue> pts{{10, 3.0}, {20, -1.0}, {30, 7.0}, {40, 2.0}};
  const auto chunk = Chunk::compress(pts);
  const auto& s = chunk.summary();
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.sum, 11.0);
  EXPECT_DOUBLE_EQ(s.min, -1.0);
  EXPECT_DOUBLE_EQ(s.max, 7.0);
  EXPECT_DOUBLE_EQ(s.first, 3.0);
  EXPECT_DOUBLE_EQ(s.last, 2.0);
}

TEST(ChunkSummaryTest, SurvivesSerializeRoundTrip) {
  const auto pts = random_series(7, 200);
  const auto chunk = Chunk::compress(pts);
  const auto back = Chunk::deserialize(chunk.serialize());
  EXPECT_EQ(back.summary(), chunk.summary());
  EXPECT_NE(back.id(), chunk.id());  // a distinct generation, never aliased
  EXPECT_NE(back.id(), 0u);
}

TEST(ChunkSummaryTest, MergeMatchesFlatAccumulation) {
  const auto pts = random_series(11, 300);
  ChunkSummary flat;
  for (const auto& p : pts) flat.add(p);
  ChunkSummary merged;
  ChunkSummary a, b;
  for (int i = 0; i < 150; ++i) a.add(pts[i]);
  for (int i = 150; i < 300; ++i) b.add(pts[i]);
  merged.merge(a);
  merged.merge(b);
  EXPECT_EQ(merged.count, flat.count);
  EXPECT_DOUBLE_EQ(merged.sum, flat.sum);
  EXPECT_DOUBLE_EQ(merged.min, flat.min);
  EXPECT_DOUBLE_EQ(merged.max, flat.max);
  EXPECT_DOUBLE_EQ(merged.first, flat.first);
  EXPECT_DOUBLE_EQ(merged.last, flat.last);
}

// -- Cursor -------------------------------------------------------------------

TEST(ChunkCursorTest, StreamsExactlyWhatDecompressReturns) {
  const auto pts = random_series(23, 700);
  const auto chunk = Chunk::compress(pts);
  ChunkCursor cursor(chunk);
  std::vector<TimedValue> streamed;
  TimedValue p;
  while (cursor.next(p)) streamed.push_back(p);
  EXPECT_EQ(streamed, chunk.decompress());
  EXPECT_EQ(streamed, pts);
  EXPECT_EQ(cursor.remaining(), 0u);
}

TEST(ChunkCursorTest, EmptyChunkYieldsNothing) {
  Chunk empty;
  ChunkCursor cursor(empty);
  TimedValue p;
  EXPECT_FALSE(cursor.next(p));
}

// -- Aggregate/downsample equivalence ----------------------------------------

// The reference semantics: what the pre-summary store computed.
std::optional<double> reference_aggregate(const TimeSeriesStore& store,
                                          const TimeRange& range, Agg agg) {
  return aggregate_points(store.query_range(kS0, range), agg);
}

TEST(QueryEngineTest, AggregateMatchesFullDecodeAcrossRangeShapes) {
  const auto pts = random_series(42, 2000);
  TimeSeriesStore store(128);  // ~15 sealed chunks + head
  fill(store, pts);
  const TimePoint lo = pts.front().time;
  const TimePoint hi = pts.back().time;
  const std::vector<TimeRange> ranges = {
      {0, hi + core::kMinute},              // everything
      {lo, hi},                             // half-open: drops the last point
      {lo + (hi - lo) / 4, hi - (hi - lo) / 4},  // interior, chunk-straddling
      {lo + core::kSecond, lo + 2 * core::kSecond},  // inside one chunk
      {hi, hi + core::kMinute},             // exactly the last point
      {hi + 1, hi + 2},                     // past the end: empty
  };
  for (const auto& range : ranges) {
    for (const auto agg : {Agg::kSum, Agg::kMean, Agg::kMin, Agg::kMax,
                           Agg::kCount, Agg::kLast}) {
      const auto fast = store.aggregate(kS0, range, agg);
      const auto slow = reference_aggregate(store, range, agg);
      ASSERT_EQ(fast.has_value(), slow.has_value())
          << "range [" << range.begin << "," << range.end << ") "
          << to_string(agg);
      if (!fast) continue;
      if (agg == Agg::kSum || agg == Agg::kMean) {
        // Summed per-chunk then merged: same order, but association differs.
        EXPECT_NEAR(*fast, *slow, std::abs(*slow) * 1e-12 + 1e-12);
      } else {
        EXPECT_DOUBLE_EQ(*fast, *slow);
      }
    }
  }
  // Covered chunks really were answered from summaries, not decoded.
  EXPECT_GT(obs::snapshot_of(store).counter("store.summary_chunks"), 0u);
}

TEST(QueryEngineTest, DownsampleMatchesFullDecode) {
  const auto pts = random_series(77, 3000);
  TimeSeriesStore store(100);
  fill(store, pts);
  const TimeRange range{0, pts.back().time + core::kMinute};
  for (const auto bucket : {core::kMinute, 10 * core::kMinute, core::kHour}) {
    for (const auto agg :
         {Agg::kSum, Agg::kMean, Agg::kMin, Agg::kMax, Agg::kCount,
          Agg::kLast}) {
      const auto fast = store.downsample(kS0, range, bucket, agg);
      // Reference: bucket the materialized points the way the old code did.
      const auto all = store.query_range(kS0, range);
      std::vector<TimedValue> slow;
      std::size_t i = 0;
      while (i < all.size()) {
        const TimePoint bs =
            range.begin + (all[i].time - range.begin) / bucket * bucket;
        std::vector<TimedValue> in_bucket;
        while (i < all.size() && all[i].time < bs + bucket) {
          in_bucket.push_back(all[i]);
          ++i;
        }
        if (auto v = aggregate_points(in_bucket, agg)) slow.push_back({bs, *v});
      }
      ASSERT_EQ(fast.size(), slow.size()) << to_string(agg);
      for (std::size_t k = 0; k < fast.size(); ++k) {
        EXPECT_EQ(fast[k].time, slow[k].time);
        if (agg == Agg::kSum || agg == Agg::kMean) {
          EXPECT_NEAR(fast[k].value, slow[k].value,
                      std::abs(slow[k].value) * 1e-12 + 1e-12);
        } else {
          EXPECT_DOUBLE_EQ(fast[k].value, slow[k].value);
        }
      }
    }
  }
}

TEST(QueryEngineTest, LatestAnsweredFromSummaryWithoutDecode) {
  TimeSeriesStore store(4);
  for (int i = 1; i <= 8; ++i) {
    store.append(kS0, i * core::kSecond, i * 1.5);  // two sealed chunks
  }
  const auto qs_before = obs::snapshot_of(store);
  const auto l = store.latest(kS0);
  ASSERT_TRUE(l.has_value());
  EXPECT_EQ(l->time, 8 * core::kSecond);
  EXPECT_DOUBLE_EQ(l->value, 12.0);
  const auto qs_after = obs::snapshot_of(store);
  EXPECT_EQ(qs_after.counter("store.cache_misses"),
            qs_before.counter("store.cache_misses"));  // no decode
}

// -- Empty-range and boundary edges (satellite) -------------------------------

TEST(QueryEngineTest, EmptyRangeReturnsNothingEverywhere) {
  const auto pts = random_series(5, 500);
  TimeSeriesStore store(64);
  fill(store, pts);
  const TimePoint mid = pts[pts.size() / 2].time;
  for (const TimeRange empty :
       {TimeRange{mid, mid}, TimeRange{mid, mid - core::kSecond},
        TimeRange{pts.front().time, pts.front().time},
        TimeRange{pts.back().time, pts.back().time}}) {
    EXPECT_TRUE(store.query_range(kS0, empty).empty());
    EXPECT_FALSE(store.aggregate(kS0, empty, Agg::kCount).has_value());
    EXPECT_TRUE(
        store.downsample(kS0, empty, core::kMinute, Agg::kMean).empty());
    EXPECT_EQ(store.scan(kS0, empty, [](const TimedValue&) { return true; }),
              0u);
  }
}

TEST(QueryEngineTest, ExactMinMaxBoundaries) {
  TimeSeriesStore store(4);
  // One sealed chunk [1s..4s] and head [5s..6s].
  for (int i = 1; i <= 6; ++i) store.append(kS0, i * core::kSecond, 1.0 * i);
  const TimePoint min = 1 * core::kSecond;
  const TimePoint max = 4 * core::kSecond;  // sealed chunk's max_time
  // [min, min+1): exactly the first point.
  EXPECT_DOUBLE_EQ(*store.aggregate(kS0, {min, min + 1}, Agg::kSum), 1.0);
  // [min, max): the half-open end excludes the chunk's max point.
  EXPECT_DOUBLE_EQ(*store.aggregate(kS0, {min, max}, Agg::kCount), 3.0);
  // [max, max+1): exactly the chunk's last point.
  EXPECT_DOUBLE_EQ(*store.aggregate(kS0, {max, max + 1}, Agg::kSum), 4.0);
  // [min, max+1): the whole chunk, summary-covered.
  const auto before = obs::snapshot_of(store).counter("store.summary_chunks");
  EXPECT_DOUBLE_EQ(*store.aggregate(kS0, {min, max + 1}, Agg::kSum), 10.0);
  EXPECT_EQ(obs::snapshot_of(store).counter("store.summary_chunks"),
            before + 1);
}

// -- scan() -------------------------------------------------------------------

TEST(QueryEngineTest, ScanVisitsExactlyQueryRange) {
  const auto pts = random_series(13, 1500);
  TimeSeriesStore store(128);
  fill(store, pts);
  const TimeRange range{pts[100].time, pts[1200].time};
  std::vector<TimedValue> streamed;
  const auto n = store.scan(kS0, range, [&](const TimedValue& p) {
    streamed.push_back(p);
    return true;
  });
  EXPECT_EQ(streamed, store.query_range(kS0, range));
  EXPECT_EQ(n, streamed.size());
}

TEST(QueryEngineTest, ScanStopsEarlyWhenVisitorDeclines) {
  const auto pts = random_series(19, 1000);
  TimeSeriesStore store(64);
  fill(store, pts);
  std::size_t seen = 0;
  const auto n = store.scan(kS0, {0, pts.back().time + 1},
                            [&](const TimedValue&) { return ++seen < 10; });
  EXPECT_EQ(n, 10u);
  EXPECT_EQ(seen, 10u);
}

// -- Sharded scatter-gather ---------------------------------------------------

TEST(QueryEngineTest, ShardedAggregateManyMatchesPerSeriesCalls) {
  ingest::ShardedTimeSeriesStore store(4, 64);
  core::Rng rng(3);
  std::vector<SeriesId> ids;
  for (std::uint32_t s = 0; s < 24; ++s) {
    ids.push_back(SeriesId{s});
    TimePoint t = 0;
    for (int i = 0; i < 300; ++i) {
      t += core::kSecond;
      store.append(SeriesId{s}, t, rng.uniform(0.0, 100.0));
    }
  }
  const TimeRange range{10 * core::kSecond, 250 * core::kSecond};
  const auto many = store.aggregate_many(ids, range, Agg::kSum);
  ASSERT_EQ(many.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto one = store.aggregate(ids[i], range, Agg::kSum);
    ASSERT_EQ(many[i].has_value(), one.has_value());
    if (one) EXPECT_DOUBLE_EQ(*many[i], *one);
  }
  const auto ds_many =
      store.downsample_many(ids, range, core::kMinute, Agg::kMean);
  ASSERT_EQ(ds_many.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ds_many[i],
              store.downsample(ids[i], range, core::kMinute, Agg::kMean));
  }
  // Merged self-metrics see the fan-out.
  EXPECT_GE(obs::snapshot_of(store).counter("store.queries"), 2 * ids.size());
}

TEST(QueryEngineTest, ReadPathCountersMove) {
  const auto pts = random_series(31, 1000);
  TimeSeriesStore store(100);
  fill(store, pts);
  const TimeRange range{0, pts.back().time + 1};
  (void)store.query_range(kS0, range);
  const auto cold = obs::snapshot_of(store);
  EXPECT_GT(cold.counter("store.queries"), 0u);
  EXPECT_GT(cold.counter("store.cache_misses"), 0u);
  EXPECT_EQ(cold.counter("store.cache_hits"), 0u);
  (void)store.query_range(kS0, range);  // dashboard refresh
  const auto warm = obs::snapshot_of(store);
  EXPECT_EQ(warm.counter("store.cache_misses"),
            cold.counter("store.cache_misses"));
  EXPECT_GT(warm.counter("store.cache_hits"), 0u);
  EXPECT_GT(warm.gauge("store.cache_entries"), 0.0);
}

TEST(QueryEngineTest, EachReadLandsInItsStage) {
  // Series 0 and 1 hash to different shards; each seals four chunks.
  ingest::ShardedTimeSeriesStore store(2, 64);
  const SeriesId ids[] = {SeriesId{0}, SeriesId{1}};
  ASSERT_NE(store.shard_of(ids[0]), store.shard_of(ids[1]));
  for (const auto id : ids) {
    for (int i = 1; i <= 300; ++i) store.append(id, i * core::kSecond, i);
  }
  ASSERT_EQ(store.stats().sealed_chunks, 8u);
  const auto count = [&](const char* stage) {
    return obs::snapshot_of(store).histogram(stage)->count;
  };
  const TimeRange all{0, 301 * core::kSecond};
  const TimeRange sealed{0, 257 * core::kSecond};  // chunks 1-4, no head

  for (const auto id : ids) {
    (void)store.aggregate(id, all, Agg::kSum);
    (void)store.downsample(id, all, core::kHour, Agg::kMean);
  }
  EXPECT_EQ(count("stage.query_summary_us"), 4u);
  EXPECT_EQ(count("stage.query_cursor_us"), 0u);

  for (const auto id : ids) (void)store.query_range(id, sealed);
  EXPECT_EQ(count("stage.query_cursor_us"), 2u);
  EXPECT_EQ(count("stage.query_cache_us"), 0u);
  for (const auto id : ids) (void)store.query_range(id, sealed);
  EXPECT_EQ(count("stage.query_cache_us"), 2u);

  for (const auto id : ids) {
    (void)store.scan(id, all, [](const TimedValue&) { return true; });
  }
  EXPECT_EQ(count("stage.query_cursor_us"), 4u);
  EXPECT_EQ(count("stage.query_summary_us"), 4u);
  EXPECT_EQ(count("stage.query_cache_us"), 2u);
}

}  // namespace
}  // namespace hpcmon::store
