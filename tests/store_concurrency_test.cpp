// Satellite: concurrent-store stress. M producer threads (a mix of
// disjoint-series and overlapping-series writers) race a reader thread that
// continuously runs query_range / stats / latest. Typed over BOTH the
// single-mutex TimeSeriesStore and the hash-partitioned
// ingest::ShardedTimeSeriesStore so the two honor the same contract under
// contention. Labeled `threaded` — the tsan preset runs it under
// ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "ingest/sharded_store.hpp"
#include "store/tsdb.hpp"
#include "store_evict.hpp"

namespace hpcmon {
namespace {

using core::SeriesId;
using core::TimePoint;
using core::TimeRange;

template <typename Store>
Store make_store();

template <>
store::TimeSeriesStore make_store<store::TimeSeriesStore>() {
  return store::TimeSeriesStore(64);
}
template <>
ingest::ShardedTimeSeriesStore make_store<ingest::ShardedTimeSeriesStore>() {
  return ingest::ShardedTimeSeriesStore(4, 64);
}

template <typename Store>
class StoreConcurrencyTest : public ::testing::Test {};

using StoreTypes =
    ::testing::Types<store::TimeSeriesStore, ingest::ShardedTimeSeriesStore>;
TYPED_TEST_SUITE(StoreConcurrencyTest, StoreTypes);

TYPED_TEST(StoreConcurrencyTest, ProducersAndReaderRaceSafely) {
  constexpr int kDisjointProducers = 3;
  constexpr int kOverlapProducers = 2;
  constexpr int kPointsPerSeries = 400;
  constexpr std::uint32_t kSharedSeries = 1000;

  auto store = make_store<TypeParam>();
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> overlap_accepted{0};

  // Reader: exercises every read path while writers mutate.
  std::thread reader([&] {
    std::uint64_t sink = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const auto st = store.stats();
      sink += st.points;
      for (std::uint32_t s = 0; s < kDisjointProducers + 1; ++s) {
        sink += store.query_range(SeriesId{s}, TimeRange{0, core::kDay}).size();
        if (const auto l = store.latest(SeriesId{s})) sink += l->time > 0;
      }
      sink += store.query_range(SeriesId{kSharedSeries},
                                TimeRange{0, core::kDay}).size();
    }
    EXPECT_GE(sink, 0u);  // keep `sink` observable
  });

  std::vector<std::thread> producers;
  // Disjoint writers: producer p owns series p exclusively, strictly
  // increasing timestamps, so every append must be accepted.
  for (int p = 0; p < kDisjointProducers; ++p) {
    producers.emplace_back([&store, p] {
      for (int i = 0; i < kPointsPerSeries; ++i) {
        ASSERT_TRUE(store.append(SeriesId{static_cast<std::uint32_t>(p)},
                                 (i + 1) * core::kSecond, p + i * 0.5));
      }
    });
  }
  // Overlapping writers: both hammer the SAME series with the same timestamp
  // ladder — exactly one append per timestamp may win; none may corrupt.
  for (int p = 0; p < kOverlapProducers; ++p) {
    producers.emplace_back([&store, &overlap_accepted] {
      for (int i = 0; i < kPointsPerSeries; ++i) {
        if (store.append(SeriesId{kSharedSeries}, (i + 1) * core::kSecond,
                         1.0 * i)) {
          overlap_accepted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  // Disjoint series all complete and ordered.
  for (std::uint32_t s = 0; s < kDisjointProducers; ++s) {
    const auto pts = store.query_range(SeriesId{s}, TimeRange{0, core::kDay});
    ASSERT_EQ(pts.size(), static_cast<std::size_t>(kPointsPerSeries));
    for (std::size_t i = 1; i < pts.size(); ++i) {
      ASSERT_LT(pts[i - 1].time, pts[i].time);
    }
  }
  // Shared series: the store accepted exactly the points it now returns,
  // all strictly increasing, and the top of the timestamp ladder landed
  // (a fast writer may advance last_time past a slow one, so the count can
  // legitimately be below kPointsPerSeries — but never above).
  const auto shared =
      store.query_range(SeriesId{kSharedSeries}, TimeRange{0, core::kDay});
  EXPECT_EQ(shared.size(), overlap_accepted.load());
  EXPECT_GE(shared.size(), 1u);
  EXPECT_LE(shared.size(), static_cast<std::size_t>(kPointsPerSeries));
  EXPECT_EQ(shared.back().time, kPointsPerSeries * core::kSecond);
  for (std::size_t i = 1; i < shared.size(); ++i) {
    ASSERT_LT(shared[i - 1].time, shared[i].time);
  }
  const auto st = store.stats();
  EXPECT_EQ(st.points, kDisjointProducers * kPointsPerSeries + shared.size());
  EXPECT_EQ(st.series, static_cast<std::size_t>(kDisjointProducers) + 1);
}

// Read-path race: many readers running the NEW query engine
// (aggregate/downsample/scan/query_range, summaries + cursors + shared
// decode cache) while a writer keeps appending and an evictor keeps sealing
// chunks out from under them. Validates the shared_mutex + striped-lock +
// cache design under tsan: readers must never block each other out of
// correctness (that's the bench's job to show) and must always see a
// consistent snapshot — whatever count() a query returns, the points are
// strictly ordered and aggregates agree with them.
TYPED_TEST(StoreConcurrencyTest, QueryEngineReadersRaceWriterAndEvictor) {
  constexpr int kReaders = 4;
  constexpr int kPoints = 3000;
  const SeriesId series{7};

  auto store = make_store<TypeParam>();
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> archived{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&store, &stop, series, r] {
      std::uint64_t sink = 0;
      const TimeRange all{0, core::kDay};
      while (!stop.load(std::memory_order_acquire)) {
        // Every fast path at once; each must be self-consistent.
        const auto pts = store.query_range(series, all);
        for (std::size_t i = 1; i < pts.size(); ++i) {
          ASSERT_LT(pts[i - 1].time, pts[i].time);
        }
        const auto count = store.aggregate(series, all, store::Agg::kCount);
        if (count) sink += static_cast<std::uint64_t>(*count);
        sink += store.downsample(series, all, core::kMinute,
                                 static_cast<store::Agg>(r % 6))
                    .size();
        std::uint64_t visited = 0;
        store.scan(series, all, [&](const core::TimedValue& p) {
          sink += p.time > 0;
          return ++visited < 64;  // early exit path
        });
      }
      EXPECT_GE(sink, 0u);
    });
  }

  std::thread evictor([&store, &stop, &archived] {
    while (!stop.load(std::memory_order_acquire)) {
      // Trail the writer: keep roughly the last 500s hot.
      const auto latest = store.latest(SeriesId{7});
      const TimePoint cutoff = latest ? latest->time - 500 * core::kSecond : 0;
      for (const auto& [sid, chunk] : evict::sealed_before(store, cutoff)) {
        archived.fetch_add(chunk->count(), std::memory_order_relaxed);
      }
    }
  });

  for (int i = 1; i <= kPoints; ++i) {
    ASSERT_TRUE(store.append(series, i * core::kSecond, 0.25 * i));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  evictor.join();

  // Conservation: every appended point is either still hot or was archived.
  const auto hot =
      store.query_range(series, TimeRange{0, core::kDay}).size();
  EXPECT_EQ(hot + archived.load(), static_cast<std::uint64_t>(kPoints));
  // The read-path self-metrics saw real traffic.
  EXPECT_GT(obs::snapshot_of(store).counter("store.queries"), 0u);
}

// Readers racing the open head: one writer appends (sealing every 64th
// point) while readers call query_range, scan and latest on the same
// series. A read copies the head's stream under the stripe and decodes it
// outside, so whatever instant it lands on, it must return a strictly
// increasing prefix of the written points, and latest never goes backwards.
TYPED_TEST(StoreConcurrencyTest, ReadersRacingTheOpenHeadSeePrefixes) {
  constexpr int kReaders = 3;
  constexpr int kPoints = 20000;
  const SeriesId series{11};
  const auto written = [](std::int64_t i) {  // the i-th point, from 1
    return core::TimedValue{i * core::kSecond,
                            0.5 * static_cast<double>(i) + (i % 7 == 0)};
  };
  const auto is_prefix = [&](const std::vector<core::TimedValue>& pts) {
    for (std::size_t k = 0; k < pts.size(); ++k) {
      if (k > 0 && pts[k - 1].time >= pts[k].time) return false;
      if (!(pts[k] == written(static_cast<std::int64_t>(k) + 1))) return false;
    }
    return true;
  };

  auto store = make_store<TypeParam>();
  std::atomic<bool> stop{false};
  std::atomic<int> reading{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      const TimeRange all{0, core::kDay};
      TimePoint newest = 0;
      std::vector<core::TimedValue> seen;
      reading.fetch_add(1, std::memory_order_release);
      while (!stop.load(std::memory_order_acquire)) {
        ASSERT_TRUE(is_prefix(store.query_range(series, all)));
        seen.clear();
        store.scan(series, all, [&](const core::TimedValue& p) {
          seen.push_back(p);
          return true;
        });
        ASSERT_TRUE(is_prefix(seen));
        if (const auto l = store.latest(series)) {
          ASSERT_GE(l->time, newest);
          newest = l->time;
          ASSERT_EQ(*l, written(l->time / core::kSecond));
        }
      }
    });
  }
  while (reading.load(std::memory_order_acquire) < kReaders) {
    std::this_thread::yield();
  }
  for (std::int64_t i = 1; i <= kPoints; ++i) {
    const auto p = written(i);
    ASSERT_TRUE(store.append(series, p.time, p.value));
    if (i % 64 == 0) std::this_thread::yield();  // let the readers in
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  const auto all = store.query_range(series, TimeRange{0, core::kDay});
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kPoints));
  EXPECT_TRUE(is_prefix(all));
}

}  // namespace
}  // namespace hpcmon
