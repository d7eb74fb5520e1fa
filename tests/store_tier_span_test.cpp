// The seam between the hot store and the tier ladder, read through the span
// view. The view must answer exactly as one store holding the same points
// would: on a bucket grid that starts at range.begin, in the window between
// a compaction pass's commit and its eviction (the chunk is on both sides),
// and while a compactor moves chunks across the seam under a live reader.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "store/compactor.hpp"
#include "store/tier.hpp"
#include "store/tsdb.hpp"

namespace hpcmon::store {
namespace {

using core::kMinute;
using core::kSecond;
using core::SeriesId;
using core::TimedValue;
using core::TimePoint;
using core::TimeRange;

constexpr Agg kAggs[] = {Agg::kSum,   Agg::kMean,  Agg::kMin,
                         Agg::kMax,   Agg::kCount, Agg::kLast};
constexpr SeriesId kS{1};
constexpr TimeRange kAll{0, 1000 * kMinute};

/// One raw tier that never ages or expires: every chunk a pass moves stays
/// in tier 0, byte-identical to the hot chunk it came from.
TierPolicy raw_forever() {
  TierSpec raw;
  raw.agg = Agg::kLast;
  const auto forever = 100000 * core::kHour;
  raw.keep = {forever, forever, forever};
  TierPolicy p;
  p.tiers = {raw};
  return p;
}

std::unique_ptr<TierStore> open_tiers(const std::string& name) {
  const std::string dir = "/tmp/hpcmon_tier_span_" + name;
  std::filesystem::remove_all(dir);
  TierStore::Options o;
  o.dir = dir;
  o.policy = raw_forever();
  auto tiers = std::make_unique<TierStore>(std::move(o));
  EXPECT_TRUE(tiers->open().is_ok());
  return tiers;
}

/// `n` points 10 s apart from t = 0, value i: they sum to n(n-1)/2.
void fill(TimeSeriesStore& hot, int n) {
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(hot.append(kS, i * 10 * kSecond, double(i)));
  }
}

/// One pass at 250 s with a one-minute hot window tiers the sealed chunks
/// whose newest point is older than 190 s.
void compact(TimeSeriesStore& hot, TierStore& tiers) {
  CompactorOptions co;
  co.hot_window = kMinute;
  Compactor compactor({&hot}, &tiers, std::move(co));
  ASSERT_TRUE(compactor.run_pass(250 * kSecond).is_ok());
  ASSERT_GT(tiers.file_count(), 0u);
}

// A 30 s grid from t = 5 s: tier buckets used to be floored to epoch
// multiples of 30 s while hot buckets started at range.begin, so the view
// reported [0s] [30s] ... [150s] [155s] where one store reports [5s] [35s]
// ... [155s].
TEST(TierSpanTest, DownsampleOnAnOffsetGridMatchesOneStore) {
  TimeSeriesStore compacted(4);
  TimeSeriesStore reference(4);
  fill(compacted, 20);
  fill(reference, 20);
  const auto tiers = open_tiers("grid");
  compact(compacted, *tiers);

  const TierSpanView<TimeSeriesStore> span(tiers.get(), &compacted);
  for (const TimePoint begin : {5 * kSecond, 7 * kSecond, 0 * kSecond}) {
    const TimeRange range{begin, 1000 * kSecond};
    for (const auto agg : kAggs) {
      EXPECT_EQ(span.downsample(kS, range, 30 * kSecond, agg),
                reference.downsample(kS, range, 30 * kSecond, agg))
          << "begin " << begin << " agg " << to_string(agg);
    }
  }
}

// Between a pass's commit and its eviction every tiered chunk is also still
// in the hot store. Two identical stores, only one compacted: the view over
// the tiers and the uncompacted store is exactly that window, and it must
// count each point once.
TEST(TierSpanTest, ReadsBetweenCommitAndEvictionCountEachPointOnce) {
  TimeSeriesStore compacted(4);
  TimeSeriesStore uncompacted(4);
  fill(compacted, 20);
  fill(uncompacted, 20);
  const auto tiers = open_tiers("window");
  compact(compacted, *tiers);

  const TierSpanView<TimeSeriesStore> span(tiers.get(), &uncompacted);
  const auto pts = span.query_range(kS, kAll);
  ASSERT_EQ(pts, uncompacted.query_range(kS, kAll));
  EXPECT_EQ(span.aggregate(kS, kAll, Agg::kCount), 20.0);
  EXPECT_EQ(span.aggregate(kS, kAll, Agg::kSum), 190.0);
  for (const auto agg : kAggs) {
    EXPECT_EQ(span.aggregate(kS, kAll, agg), aggregate_points(pts, agg))
        << to_string(agg);
  }
  // Downsample agrees with bucketing the query_range points by hand.
  const auto bucket = kMinute;
  std::map<TimePoint, std::vector<TimedValue>> by_bucket;
  for (const auto& p : pts) by_bucket[p.time / bucket * bucket].push_back(p);
  for (const auto agg : kAggs) {
    std::vector<TimedValue> want;
    for (const auto& [start, members] : by_bucket) {
      want.push_back({start, *aggregate_points(members, agg)});
    }
    EXPECT_EQ(span.downsample(kS, kAll, bucket, agg), want) << to_string(agg);
  }
}

// A coarse tier entry's buckets start at the bucket floor, before its first
// raw sample. When a series' newer file ages before its older one (the older
// file also holds another series' later data), the newer entry's first
// bucket lands before the older entry's last point. Reads stay time-ordered.
TEST(TierSpanTest, CoarseEntryAfterAFinerOneStaysTimeOrdered) {
  const std::string dir = "/tmp/hpcmon_tier_span_coarse";
  std::filesystem::remove_all(dir);
  TierSpec raw;
  raw.agg = Agg::kLast;
  raw.keep = {700 * kSecond, 700 * kSecond, 700 * kSecond};
  TierSpec coarse;
  coarse.resolution = kMinute;
  coarse.agg = Agg::kMean;
  coarse.keep = {core::kDay, core::kDay, core::kDay};
  TierStore::Options o;
  o.dir = dir;
  o.policy.tiers = {raw, coarse};
  TierStore tiers(std::move(o));
  ASSERT_TRUE(tiers.open().is_ok());
  TimeSeriesStore hot(4);
  const SeriesId other{2};
  for (const int t : {0, 30, 60, 100}) ASSERT_TRUE(hot.append(kS, t * kSecond, t));
  for (const int t : {0, 100, 300, 500}) {
    ASSERT_TRUE(hot.append(other, t * kSecond, t));
  }
  CompactorOptions co;
  co.hot_window = kMinute;
  Compactor compactor({&hot}, &tiers, std::move(co));
  // The first file holds kS up to 100 s and `other` up to 500 s.
  ASSERT_TRUE(compactor.run_pass(1000 * kSecond).is_ok());
  for (const int t : {110, 140, 170, 200}) {
    ASSERT_TRUE(hot.append(kS, t * kSecond, t));
  }
  // The second file (kS from 110 s) ends first, so it alone ages.
  ASSERT_TRUE(compactor.run_pass(1001 * kSecond).is_ok());
  ASSERT_EQ(tiers.files(0).size(), 1u);
  ASSERT_EQ(tiers.files(1).size(), 1u);

  const TierSpanView<TimeSeriesStore> span(&tiers, &hot);
  const auto pts = span.query_range(kS, kAll);
  ASSERT_EQ(pts.size(), 7u);  // 4 raw points + 3 one-minute buckets
  EXPECT_TRUE(std::is_sorted(pts.begin(), pts.end(),
                             [](const TimedValue& a, const TimedValue& b) {
                               return a.time < b.time;
                             }));
  EXPECT_EQ(span.aggregate(kS, kAll, Agg::kCount), 8.0);  // from summaries
  const auto bucket = 30 * kSecond;
  std::map<TimePoint, std::vector<TimedValue>> by_bucket;
  for (const auto& p : pts) by_bucket[p.time / bucket * bucket].push_back(p);
  std::vector<TimedValue> want;
  for (const auto& [start, members] : by_bucket) {
    want.push_back({start, *aggregate_points(members, Agg::kCount)});
  }
  EXPECT_EQ(span.downsample(kS, kAll, bucket, Agg::kCount), want);
}

// A reader races a compactor that moves chunks from the hot store into the
// ladder pass after pass. Whichever side of the seam a chunk is on, and
// even mid-pass, every whole-range read sees every point exactly once.
TEST(TierSpanTest, ReadsRacingCompactionSeeEveryPointOnce) {
  constexpr int kRounds = 10;
  constexpr int kPoints = 605;  // 75 sealed chunks of 8 and a 5-point head
  std::uint64_t reads = 0;
  for (int round = 0; round < kRounds; ++round) {
    TimeSeriesStore hot(8);
    for (int i = 0; i < kPoints; ++i) {
      ASSERT_TRUE(hot.append(kS, i * kSecond, double(i % 97)));
    }
    const auto tiers = open_tiers("race");
    const TierSpanView<TimeSeriesStore> span(tiers.get(), &hot);
    std::atomic<bool> done{false};
    std::uint64_t wrong_counts = 0;
    std::uint64_t wrong_ranges = 0;
    std::atomic<std::uint64_t> round_reads{0};
    std::thread reader([&] {
      while (!done.load(std::memory_order_acquire)) {
        const auto count = span.aggregate(kS, kAll, Agg::kCount);
        const auto pts = span.query_range(kS, kAll);
        wrong_counts += count != double(kPoints);
        wrong_ranges += pts.size() != std::size_t{kPoints};
        round_reads.fetch_add(1, std::memory_order_release);
      }
    });
    // The passes start only once the reader is reading.
    while (round_reads.load(std::memory_order_acquire) == 0) {
      std::this_thread::yield();
    }
    CompactorOptions co;
    co.hot_window = kMinute;
    Compactor compactor({&hot}, tiers.get(), std::move(co));
    for (TimePoint now = 2 * kMinute; now <= (kPoints + 120) * kSecond;
         now += 30 * kSecond) {
      EXPECT_TRUE(compactor.run_pass(now).is_ok());
    }
    done.store(true, std::memory_order_release);
    reader.join();
    EXPECT_EQ(wrong_counts, 0u) << "round " << round << ": aggregate(kCount) "
                                << "missed or doubled a chunk";
    EXPECT_EQ(wrong_ranges, 0u) << "round " << round << ": query_range "
                                << "missed or doubled a chunk";
    EXPECT_EQ(hot.stats().points, 5u) << "every sealed chunk left the hot store";
    reads += round_reads.load();
  }
  EXPECT_GT(reads, std::uint64_t{kRounds});
}

}  // namespace
}  // namespace hpcmon::store
