// Property-style checks of the tier ladder: whatever the random workload
// and whatever the pass schedule, the merged tier+hot view must (a) return
// raw-resident data verbatim, (b) keep whole-range aggregates EXACT against
// raw ground truth across any number of agings (the dual-summary contract),
// and (c) produce downsampled points that are precisely the floor-aligned
// bucket reductions of the raw history.
//
// Values are integers (exactly representable doubles), so "exact" means
// bitwise double equality — any drift in the summary-merge plumbing fails
// loudly instead of hiding inside an epsilon.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <vector>

#include "core/rng.hpp"
#include "store/compactor.hpp"
#include "store/tier.hpp"
#include "store/tsdb.hpp"

namespace hpcmon::store {
namespace {

using core::kMinute;
using core::kSecond;
using core::SeriesId;
using core::TimePoint;
using core::TimeRange;

constexpr TimeRange kEverything{-core::kHour, 10000 * kMinute};
constexpr core::Duration kRes = 30 * kSecond;

/// Two rungs, nothing ever expires (the last tier keeps everything), so
/// whole-range aggregates must stay exact forever.
TierPolicy keep_forever_policy(core::Duration raw_keep) {
  TierPolicy p;
  TierSpec raw;
  raw.resolution = 0;
  raw.agg = Agg::kLast;
  raw.keep = {raw_keep, raw_keep, raw_keep};
  TierSpec coarse;
  coarse.resolution = kRes;
  coarse.agg = Agg::kMean;
  const auto forever = 100000 * core::kHour;
  coarse.keep = {forever, forever, forever};
  p.tiers = {raw, coarse};
  return p;
}

struct Truth {
  std::vector<core::TimedValue> points;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

TEST(TierPropertyTest, RawResidentDataRoundTripsVerbatim) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const std::string dir =
        "/tmp/hpcmon_prop_raw_" + std::to_string(seed);
    std::filesystem::remove_all(dir);
    core::Rng rng(seed);
    TimeSeriesStore hot(8);
    // A burst narrower than the raw retention window, so the first pass
    // tiers it without aging anything.
    std::map<std::uint32_t, std::vector<core::TimedValue>> truth;
    TimePoint max_t = 0;
    for (std::uint32_t sid = 1; sid <= 3; ++sid) {
      TimePoint t = rng.uniform_int(0, 3) * kSecond;
      for (int i = 0; i < 40; ++i) {
        const double v = double(rng.uniform_int(-1000, 1000));
        ASSERT_TRUE(hot.append(SeriesId{sid}, t, v));
        truth[sid].push_back({t, v});
        max_t = std::max(max_t, t);
        t += kSecond;
      }
    }
    TierStore::Options o;
    o.dir = dir;
    o.policy = keep_forever_policy(5 * kMinute);
    TierStore tiers(std::move(o));
    ASSERT_TRUE(tiers.open().is_ok());
    CompactorOptions co;
    co.hot_window = 10 * kSecond;
    Compactor compactor({&hot}, &tiers, std::move(co));
    ASSERT_TRUE(compactor.run_pass(max_t + 70 * kSecond).is_ok());
    ASSERT_GT(tiers.file_count(), 0u);
    ASSERT_TRUE(tiers.files(1).empty()) << "nothing should have aged yet";

    const TierSpanView<TimeSeriesStore> span(&tiers, &hot);
    for (const auto& [sid, pts] : truth) {
      const auto got = span.query_range(SeriesId{sid}, kEverything);
      ASSERT_EQ(got.size(), pts.size()) << "seed " << seed;
      for (std::size_t i = 0; i < pts.size(); ++i) {
        EXPECT_EQ(got[i].time, pts[i].time);
        EXPECT_EQ(got[i].value, pts[i].value);
      }
    }
  }
}

TEST(TierPropertyTest, WholeRangeAggregatesExactUnderAnyPassSchedule) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::string dir =
        "/tmp/hpcmon_prop_agg_" + std::to_string(seed);
    std::filesystem::remove_all(dir);
    core::Rng rng(seed);
    TimeSeriesStore hot(static_cast<std::size_t>(rng.uniform_int(4, 16)));
    std::map<std::uint32_t, Truth> truth;
    TimePoint max_t = 0;
    for (std::uint32_t sid = 1; sid <= 4; ++sid) {
      auto& tr = truth[sid];
      TimePoint t = rng.uniform_int(0, 30) * kSecond;
      const int n = static_cast<int>(rng.uniform_int(50, 200));
      for (int i = 0; i < n; ++i) {
        const double v = double(rng.uniform_int(-1000, 1000));
        ASSERT_TRUE(hot.append(SeriesId{sid}, t, v));
        tr.points.push_back({t, v});
        tr.sum += v;
        tr.min = i == 0 ? v : std::min(tr.min, v);
        tr.max = i == 0 ? v : std::max(tr.max, v);
        max_t = std::max(max_t, t);
        t += rng.uniform_int(1, 30) * kSecond;
      }
    }
    TierStore::Options o;
    o.dir = dir;
    o.policy = keep_forever_policy(2 * kMinute);
    TierStore tiers(std::move(o));
    ASSERT_TRUE(tiers.open().is_ok());
    CompactorOptions co;
    co.hot_window = kMinute;
    Compactor compactor({&hot}, &tiers, std::move(co));
    // A random pass schedule marching well past the data: every sealed
    // chunk tiers out and then ages, in whatever grouping the schedule
    // happens to produce.
    TimePoint now = 0;
    while (now < max_t + 20 * kMinute) {
      now += rng.uniform_int(1, 5) * kMinute;
      ASSERT_TRUE(compactor.run_pass(now).is_ok());
    }
    ASSERT_FALSE(tiers.files(1).empty()) << "seed " << seed;

    const TierSpanView<TimeSeriesStore> span(&tiers, &hot);
    for (const auto& [sid, tr] : truth) {
      const SeriesId s{sid};
      const double n = double(tr.points.size());
      EXPECT_EQ(span.aggregate(s, kEverything, Agg::kCount).value_or(-1), n);
      EXPECT_EQ(span.aggregate(s, kEverything, Agg::kSum).value_or(-1),
                tr.sum)
          << "seed " << seed << " series " << sid;
      EXPECT_EQ(span.aggregate(s, kEverything, Agg::kMin).value_or(-1),
                tr.min);
      EXPECT_EQ(span.aggregate(s, kEverything, Agg::kMax).value_or(-1),
                tr.max);
      EXPECT_EQ(span.aggregate(s, kEverything, Agg::kMean).value_or(-1),
                tr.sum / n);
      EXPECT_EQ(span.aggregate(s, kEverything, Agg::kLast).value_or(-1e18),
                tr.points.back().value);
    }
  }
}

TEST(TierPropertyTest, AgedPointsAreFloorAlignedBucketReductions) {
  for (std::uint64_t seed = 10; seed <= 13; ++seed) {
    const std::string dir =
        "/tmp/hpcmon_prop_ds_" + std::to_string(seed);
    std::filesystem::remove_all(dir);
    core::Rng rng(seed);
    TimeSeriesStore hot(8);
    std::vector<core::TimedValue> raw;
    const SeriesId s{42};
    TimePoint t = 0;
    for (int i = 0; i < 150; ++i) {
      const double v = double(rng.uniform_int(-1000, 1000));
      ASSERT_TRUE(hot.append(s, t, v));
      raw.push_back({t, v});
      t += rng.uniform_int(1, 20) * kSecond;
    }
    const auto max_t = raw.back().time;
    TierStore::Options o;
    o.dir = dir;
    o.policy = keep_forever_policy(2 * kMinute);
    TierStore tiers(std::move(o));
    ASSERT_TRUE(tiers.open().is_ok());
    CompactorOptions co;
    co.hot_window = kMinute;
    Compactor compactor({&hot}, &tiers, std::move(co));
    // One pass far in the future tiers AND ages everything in one motion,
    // so every bucket's mean is computed over the bucket's full raw
    // membership. (Aging spread across passes may split a boundary bucket
    // into partial means — correct within downsample semantics, but not
    // comparable to a whole-bucket ground truth.)
    ASSERT_TRUE(compactor.run_pass(max_t + core::kHour).is_ok());
    ASSERT_FALSE(tiers.files(1).empty());
    ASSERT_TRUE(tiers.files(0).empty()) << "raw files should all have aged";

    // Ground truth: floor-aligned mean per kRes bucket over the aged span.
    std::map<TimePoint, ChunkSummary> buckets;
    const auto aged_before = tiers.watermark();
    for (const auto& p : raw) {
      if (p.time < aged_before) buckets[(p.time / kRes) * kRes].add(p);
    }
    const TierSpanView<TimeSeriesStore> ladder(&tiers, nullptr);
    const auto got = ladder.query_range(s, kEverything);
    ASSERT_EQ(got.size(), buckets.size()) << "seed " << seed;
    auto it = buckets.begin();
    for (std::size_t i = 0; i < got.size(); ++i, ++it) {
      EXPECT_EQ(got[i].time % kRes, 0) << "aged point not bucket-aligned";
      EXPECT_EQ(got[i].time, it->first);
      EXPECT_EQ(got[i].value, it->second.sum / double(it->second.count))
          << "seed " << seed << " bucket " << it->first;
    }
    // The downsample read path agrees with itself at the native resolution.
    const auto ds = ladder.downsample(s, kEverything, kRes, Agg::kMean);
    ASSERT_EQ(ds.size(), got.size());
    for (std::size_t i = 0; i < ds.size(); ++i) {
      EXPECT_EQ(ds[i].time, got[i].time);
      EXPECT_EQ(ds[i].value, got[i].value);
    }
  }
}

}  // namespace
}  // namespace hpcmon::store
