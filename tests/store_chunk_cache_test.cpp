// Decode-cache tests: LRU mechanics of ChunkCache itself, cache behavior
// observed through TimeSeriesStore, and the eviction contract — the
// compactor's pair (sealed_chunks_before, then evict_chunks) must hand every
// sealed chunk over exactly once AND drop any cached decode of it (a
// generation id that will never be queried again).
#include <gtest/gtest.h>

#include <map>

#include "store/chunk_cache.hpp"
#include "store/tsdb.hpp"
#include "store_evict.hpp"

namespace hpcmon::store {
namespace {

using core::SeriesId;
using core::TimedValue;
using core::TimePoint;
using core::TimeRange;

DecodedChunk decoded_of(std::initializer_list<double> values) {
  auto pts = std::make_shared<std::vector<TimedValue>>();
  TimePoint t = 0;
  for (const auto v : values) pts->push_back({t += core::kSecond, v});
  return pts;
}

// -- ChunkCache unit ----------------------------------------------------------

TEST(ChunkCacheTest, HitsAndMisses) {
  ChunkCache cache(4);
  EXPECT_EQ(cache.get(1), nullptr);
  cache.put(1, decoded_of({1.0}));
  const auto hit = cache.get(1);
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->front().value, 1.0);
  const auto st = obs::snapshot_of(cache);
  EXPECT_EQ(st.counter("store.cache_hits"), 1u);
  EXPECT_EQ(st.counter("store.cache_misses"), 1u);
  EXPECT_EQ(st.gauge("store.cache_entries"), 1.0);
}

TEST(ChunkCacheTest, EvictsLeastRecentlyUsedAtCapacity) {
  ChunkCache cache(3);
  cache.put(1, decoded_of({1.0}));
  cache.put(2, decoded_of({2.0}));
  cache.put(3, decoded_of({3.0}));
  ASSERT_NE(cache.get(1), nullptr);  // refresh 1; LRU order now 2,3,1
  cache.put(4, decoded_of({4.0}));   // evicts 2
  EXPECT_EQ(cache.get(2), nullptr);
  EXPECT_NE(cache.get(1), nullptr);
  EXPECT_NE(cache.get(3), nullptr);
  EXPECT_NE(cache.get(4), nullptr);
  const auto st = obs::snapshot_of(cache);
  EXPECT_EQ(st.counter("store.cache_evictions"), 1u);
  EXPECT_EQ(st.gauge("store.cache_entries"), 3.0);
}

TEST(ChunkCacheTest, EraseInvalidates) {
  ChunkCache cache(4);
  cache.put(7, decoded_of({7.0}));
  cache.erase(7);
  EXPECT_EQ(cache.get(7), nullptr);
  const auto st = obs::snapshot_of(cache);
  EXPECT_EQ(st.counter("store.cache_invalidations"), 1u);
  EXPECT_EQ(st.gauge("store.cache_entries"), 0.0);
  cache.erase(7);  // erasing an absent id is a no-op
  EXPECT_EQ(obs::snapshot_of(cache).counter("store.cache_invalidations"), 1u);
}

TEST(ChunkCacheTest, CapacityZeroDisablesCaching) {
  ChunkCache cache(0);
  cache.put(1, decoded_of({1.0}));
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_EQ(obs::snapshot_of(cache).gauge("store.cache_entries"), 0.0);
}

TEST(ChunkCacheTest, DuplicatePutKeepsFirstEntry) {
  ChunkCache cache(4);
  cache.put(1, decoded_of({1.0}));
  cache.put(1, decoded_of({99.0}));  // racing decoders: first one wins
  EXPECT_DOUBLE_EQ(cache.get(1)->front().value, 1.0);
  EXPECT_EQ(obs::snapshot_of(cache).gauge("store.cache_entries"), 1.0);
}

// -- Through the store --------------------------------------------------------

TEST(ChunkCacheTest, RepeatedQueryHitsCache) {
  TimeSeriesStore store(8, /*cache_chunks=*/16);
  const SeriesId s{1};
  for (int i = 1; i <= 40; ++i) store.append(s, i * core::kSecond, 0.5 * i);
  const TimeRange range{0, 41 * core::kSecond};
  const auto first = store.query_range(s, range);
  const auto cold = obs::snapshot_of(store);
  EXPECT_EQ(cold.counter("store.cache_hits"), 0u);
  // 40 points / 8 per chunk = 5 sealed.
  EXPECT_EQ(cold.counter("store.cache_misses"), 5u);
  const auto second = store.query_range(s, range);
  EXPECT_EQ(second, first);
  const auto warm = obs::snapshot_of(store);
  EXPECT_EQ(warm.counter("store.cache_hits"), 5u);
  EXPECT_EQ(warm.counter("store.cache_misses"), 5u);
}

TEST(ChunkCacheTest, CacheDisabledStoreStillAnswersCorrectly) {
  TimeSeriesStore cached(8, 16);
  TimeSeriesStore uncached(8, 0);
  const SeriesId s{1};
  for (int i = 1; i <= 40; ++i) {
    cached.append(s, i * core::kSecond, 0.5 * i);
    uncached.append(s, i * core::kSecond, 0.5 * i);
  }
  const TimeRange range{0, 41 * core::kSecond};
  (void)uncached.query_range(s, range);
  EXPECT_EQ(uncached.query_range(s, range), cached.query_range(s, range));
  EXPECT_EQ(obs::snapshot_of(uncached).counter("store.cache_hits"), 0u);
  EXPECT_EQ(obs::snapshot_of(uncached).gauge("store.cache_entries"), 0.0);
}

// -- Eviction contract (satellite) --------------------------------------------

TEST(ChunkCacheTest, EvictBeforeDropsCachedEntries) {
  TimeSeriesStore store(4, 16);
  const SeriesId s{1};
  for (int i = 1; i <= 20; ++i) store.append(s, i * core::kSecond, 1.0 * i);
  // Warm the cache over all 5 sealed chunks.
  (void)store.query_range(s, {0, 21 * core::kSecond});
  EXPECT_EQ(obs::snapshot_of(store).gauge("store.cache_entries"), 5.0);
  // Evict the first three chunks (max times 4s, 8s, 12s).
  const auto evicted = evict::sealed_before(store, 13 * core::kSecond).size();
  EXPECT_EQ(evicted, 3u);
  const auto st = obs::snapshot_of(store);
  EXPECT_EQ(st.gauge("store.cache_entries"), 2.0);
  EXPECT_EQ(st.counter("store.cache_invalidations"), 3u);
  // Re-querying what's left hits the surviving entries, no stale data.
  const auto rest = store.query_range(s, {0, 21 * core::kSecond});
  ASSERT_EQ(rest.size(), 8u);  // chunks at 13..16s, 17..20s
  EXPECT_EQ(rest.front().time, 13 * core::kSecond);
}

TEST(ChunkCacheTest, ArchiveSinkReceivesEverySealedChunkExactlyOnce) {
  TimeSeriesStore store(4, 16);
  const SeriesId a{1}, b{2};
  for (int i = 1; i <= 17; ++i) {  // 4 sealed chunks + 1 head point per series
    store.append(a, i * core::kSecond, 1.0 * i);
    store.append(b, i * core::kSecond, -1.0 * i);
  }
  std::map<std::uint32_t, std::vector<TimedValue>> archived;
  std::size_t calls = 0;
  const auto run = [&] {
    const auto evicted = evict::sealed_before(store, 100 * core::kSecond);
    for (const auto& [sid, chunk] : evicted) {
      ++calls;
      auto pts = chunk->decompress();
      auto& dst = archived[core::raw(sid)];
      dst.insert(dst.end(), pts.begin(), pts.end());
    }
    return evicted.size();
  };
  EXPECT_EQ(run(), 8u);
  EXPECT_EQ(calls, 8u);
  // Every sealed point arrived, in order, exactly once; head points stay hot.
  for (const auto& [raw_id, pts] : archived) {
    ASSERT_EQ(pts.size(), 16u) << "series " << raw_id;
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(pts[i].time, (i + 1) * core::kSecond);
    }
  }
  EXPECT_DOUBLE_EQ(archived[1][2].value, 3.0);
  EXPECT_DOUBLE_EQ(archived[2][2].value, -3.0);
  // A second pass finds nothing new — no double delivery.
  EXPECT_EQ(run(), 0u);
  EXPECT_EQ(calls, 8u);
  // The head survives and is still queryable.
  const auto left = store.query_range(a, {0, 100 * core::kSecond});
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left[0].time, 17 * core::kSecond);
}

}  // namespace
}  // namespace hpcmon::store
