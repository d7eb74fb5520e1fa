// The crash matrix: kill the compactor at EVERY filesystem operation of a
// multi-pass workload and assert that a restart on the same directory
// recovers to the byte-exact state of a run that never crashed.
//
// The sweep is exhaustive by construction: a probe run counts the fs ops of
// the fault-free workload, then one run per k schedules `fs_crash_at = k`.
// Because no fault fires before op k, the op stream up to the crash is
// identical to the fault-free run, so every op index is reachable and every
// journaled transition (intent, tmp write, fsync, rename, commit, cleanup)
// gets killed in turn. After the crash the harness does what the stack's
// restart does: a fresh TierStore::open() on the same directory (recovery
// is not fault-injected — it is idempotent), a fresh Compactor over the
// same hot store (the WAL's job at stack level), and the remaining pass
// schedule re-runs. The final merged view must equal the reference exactly,
// with zero quarantined files — a torn tier file must never be observable.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "resilience/fault.hpp"
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

// Three-rung ladder with short horizons so seven passes exercise hot
// ingest, both aging steps, and last-tier expiry (bulk expires first).
TierPolicy matrix_policy() {
  TierPolicy p;
  TierSpec raw;
  raw.resolution = 0;
  raw.agg = Agg::kLast;
  raw.keep = {2 * kMinute, 2 * kMinute, kMinute};
  TierSpec t30;
  t30.resolution = 30 * kSecond;
  t30.agg = Agg::kMean;
  t30.keep = {6 * kMinute, 6 * kMinute, 3 * kMinute};
  TierSpec t120;
  t120.resolution = 2 * kMinute;
  t120.agg = Agg::kMean;
  t120.keep = {30 * kMinute, 30 * kMinute, 10 * kMinute};
  p.tiers = {raw, t30, t120};
  return p;
}

constexpr std::uint32_t kSeries[] = {1, 2, 3};

core::Priority priority_of(SeriesId id) {
  switch (core::raw(id)) {
    case 1: return core::Priority::kCritical;
    case 3: return core::Priority::kBulk;
    default: return core::Priority::kStandard;
  }
}

const std::vector<TimePoint> kPassTimes = {
    2 * kMinute,  4 * kMinute,  6 * kMinute, 8 * kMinute,
    10 * kMinute, 15 * kMinute, 20 * kMinute};

constexpr TimeRange kEverything{-core::kHour, 1000 * kMinute};

/// Everything observable about the store after the workload: the durable
/// watermark, quarantine count, and per series the full merged view and its
/// whole-range aggregate count and sum.
struct FinalState {
  TimePoint watermark = 0;
  std::size_t quarantined = 0;
  std::map<std::uint32_t, std::vector<core::TimedValue>> points;
  std::map<std::uint32_t, std::pair<std::optional<double>,
                                    std::optional<double>>> totals;

  bool operator==(const FinalState& o) const {
    if (watermark != o.watermark || quarantined != o.quarantined) return false;
    if (totals != o.totals) return false;
    if (points.size() != o.points.size()) return false;
    for (const auto& [sid, pts] : points) {
      const auto it = o.points.find(sid);
      if (it == o.points.end() || it->second.size() != pts.size()) {
        return false;
      }
      for (std::size_t i = 0; i < pts.size(); ++i) {
        if (pts[i].time != it->second[i].time ||
            pts[i].value != it->second[i].value) {
          return false;
        }
      }
    }
    return true;
  }
};

/// Run the deterministic workload. When `plan` injects a crash, model the
/// restart (fresh TierStore + Compactor, faults detached, same hot store)
/// and re-run the interrupted pass. Crash count lands in `crashes_out`.
FinalState run_workload(const std::string& dir, resilience::FaultPlan* plan,
                        int* crashes_out = nullptr) {
  std::filesystem::remove_all(dir);
  TimeSeriesStore hot(4);  // chunk_points=4: plenty of sealed chunks
  for (int i = 0; i <= 60; ++i) {
    for (const auto sid : kSeries) {
      EXPECT_TRUE(hot.append(SeriesId{sid}, i * 10 * kSecond,
                             double(sid) * 1000.0 + 3.0 * i - 7.0));
    }
  }

  auto make_tiers = [&](core::FsFaultInjector* faults) {
    TierStore::Options o;
    o.dir = dir;
    o.policy = matrix_policy();
    o.faults = faults;
    auto t = std::make_unique<TierStore>(std::move(o));
    EXPECT_TRUE(t->open().is_ok());
    return t;
  };
  auto tiers = make_tiers(plan);
  CompactorOptions co;
  co.hot_window = kMinute;
  co.priority_of = priority_of;
  auto compactor = std::make_unique<Compactor>(
      std::vector<TimeSeriesStore*>{&hot}, tiers.get(), co);

  int crashes = 0;
  for (const auto t : kPassTimes) {
    const auto st = compactor->run_pass(t);
    if (tiers->crashed()) {
      // The process died mid-transaction. Restart: recover the directory
      // with a fresh instance and re-run the interrupted pass fault-free.
      ++crashes;
      tiers = make_tiers(nullptr);
      compactor = std::make_unique<Compactor>(
          std::vector<TimeSeriesStore*>{&hot}, tiers.get(), co);
      EXPECT_TRUE(compactor->run_pass(t).is_ok());
    } else {
      EXPECT_TRUE(st.is_ok()) << st.message();
    }
  }
  if (crashes_out != nullptr) *crashes_out = crashes;

  FinalState out;
  out.watermark = tiers->watermark();
  out.quarantined = tiers->quarantined_count();
  const TierSpanView<TimeSeriesStore> span(tiers.get(), &hot);
  for (const auto sid : kSeries) {
    out.points[sid] = span.query_range(SeriesId{sid}, kEverything);
    out.totals[sid] = {span.aggregate(SeriesId{sid}, kEverything, Agg::kCount),
                       span.aggregate(SeriesId{sid}, kEverything, Agg::kSum)};
  }
  return out;
}

TEST(CompactorCrashMatrixTest, ByteExactRecoveryAtEveryFsOp) {
  // Reference state, and the fs-op count of the fault-free workload.
  const auto reference = run_workload("/tmp/hpcmon_matrix_ref", nullptr);
  ASSERT_GT(reference.points.at(1).size(), 0u);
  ASSERT_GT(reference.totals.at(1).first.value_or(0.0), 0.0);
  ASSERT_EQ(reference.quarantined, 0u);

  resilience::FaultPlan probe(1);
  int crashes = 0;
  const auto probed = run_workload("/tmp/hpcmon_matrix_probe", &probe,
                                   &crashes);
  ASSERT_EQ(crashes, 0);
  ASSERT_TRUE(probed == reference) << "workload is not deterministic";
  const auto total_ops = probe.fs_ops();
  // The workload must be substantial enough that the sweep means something:
  // multiple journaled transactions, each several fs ops wide.
  ASSERT_GE(total_ops, 40u);

  for (std::uint64_t k = 1; k <= total_ops; ++k) {
    resilience::FaultSpec spec;
    spec.fs_crash_at = k;
    resilience::FaultPlan plan(1, spec);
    const auto got =
        run_workload("/tmp/hpcmon_matrix_k", &plan, &crashes);
    ASSERT_EQ(plan.injected().fs_crashes, 1u)
        << "crash one-shot at op " << k << " never fired";
    ASSERT_EQ(crashes, 1) << "crash at op " << k << " went unnoticed";
    EXPECT_EQ(got.quarantined, 0u)
        << "crash at op " << k << " left an observable torn tier file";
    EXPECT_EQ(got.watermark, reference.watermark)
        << "crash at op " << k << " diverged the durable watermark";
    ASSERT_TRUE(got == reference)
        << "recovery after a crash at fs op " << k
        << " is not byte-exact against the fault-free reference";
  }
}

}  // namespace
}  // namespace hpcmon::store
