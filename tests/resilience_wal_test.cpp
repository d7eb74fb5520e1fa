// WriteAheadLog: append/replay round-trip, rotation, truncation, torn tails,
// CRC-skipped corruption, and injected file-layer faults.
#include "resilience/wal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "core/rng.hpp"
#include "reference_crc32.hpp"
#include "resilience/fault.hpp"
#include "transport/codec.hpp"

namespace hpcmon::resilience {
namespace {

namespace fs = std::filesystem;
using core::SampleBatch;

std::string fresh_dir(const std::string& name) {
  const std::string dir = "/tmp/hpcmon_wal_test_" + name;
  fs::remove_all(dir);
  return dir;
}

SampleBatch make_batch(core::TimePoint sweep, int n = 8) {
  SampleBatch b;
  b.sweep_time = sweep;
  b.origin = core::ComponentId{7};
  for (int i = 0; i < n; ++i) {
    b.samples.push_back({core::SeriesId{static_cast<std::uint32_t>(i)},
                         sweep + i, sweep * 0.25 + i});
  }
  return b;
}

std::vector<SampleBatch> replay_all(const std::string& dir,
                                    ReplayStats* stats = nullptr) {
  std::vector<SampleBatch> out;
  const auto s = WriteAheadLog::replay(
      dir, [&](SampleBatch&& b) { out.push_back(std::move(b)); });
  if (stats != nullptr) *stats = s;
  return out;
}

TEST(WalTest, AppendReplayRoundTrip) {
  const auto dir = fresh_dir("roundtrip");
  {
    WriteAheadLog wal({.dir = dir});
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(wal.append(transport::encode_samples(
          make_batch((i + 1) * core::kMinute))).is_ok());
    }
    const auto snap = obs::snapshot_of(wal);
    EXPECT_EQ(snap.counter("resilience.wal_records"), 3u);
    EXPECT_EQ(snap.counter("resilience.wal_samples"), 24u);
    EXPECT_GT(snap.counter("resilience.wal_bytes"), 0u);
  }
  ReplayStats stats;
  const auto batches = replay_all(dir, &stats);
  EXPECT_EQ(stats.segments, 1u);
  EXPECT_EQ(stats.records, 3u);
  EXPECT_EQ(stats.samples, 24u);
  EXPECT_EQ(stats.corrupt_skipped, 0u);
  EXPECT_EQ(stats.torn_tails, 0u);
  ASSERT_EQ(batches.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    const auto want = make_batch((i + 1) * core::kMinute);
    EXPECT_EQ(batches[i].sweep_time, want.sweep_time);
    EXPECT_EQ(batches[i].origin, want.origin);
    EXPECT_EQ(batches[i].samples, want.samples);
  }
  fs::remove_all(dir);
}

TEST(WalTest, EmptyBatchIsNoOp) {
  const auto dir = fresh_dir("empty");
  WriteAheadLog wal({.dir = dir});
  EXPECT_TRUE(wal.append(transport::encode_samples(SampleBatch{})).is_ok());
  EXPECT_EQ(obs::snapshot_of(wal).counter("resilience.wal_records"), 0u);
  fs::remove_all(dir);
}

TEST(WalTest, RotationSealsSegments) {
  const auto dir = fresh_dir("rotate");
  {
    // Tiny segments: every append exceeds the threshold and seals.
    WriteAheadLog wal({.dir = dir, .segment_bytes = 64});
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(wal.append(transport::encode_samples(
          make_batch((i + 1) * core::kMinute))).is_ok());
    }
    EXPECT_EQ(wal.sealed_segments(), 5u);
    const auto snap = obs::snapshot_of(wal);
    EXPECT_EQ(snap.counter("resilience.wal_segments_created"),
              6u);  // 5 sealed + active
  }
  ReplayStats stats;
  const auto batches = replay_all(dir, &stats);
  EXPECT_EQ(stats.segments, 6u);
  EXPECT_EQ(stats.records, 5u);
  ASSERT_EQ(batches.size(), 5u);
  EXPECT_EQ(batches.front().sweep_time, core::kMinute);
  EXPECT_EQ(batches.back().sweep_time, 5 * core::kMinute);
  fs::remove_all(dir);
}

TEST(WalTest, TruncateBeforeDropsOnlySealedOldSegments) {
  const auto dir = fresh_dir("truncate");
  WriteAheadLog wal({.dir = dir, .segment_bytes = 64});
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(wal.append(transport::encode_samples(
        make_batch((i + 1) * core::kMinute))).is_ok());
  }
  ASSERT_EQ(wal.sealed_segments(), 4u);
  // Newest sample in segment i is (i+1)min + 7us; cutoff past segment 2.
  const auto removed = wal.truncate_before(2 * core::kMinute + core::kSecond);
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(wal.sealed_segments(), 2u);
  const auto snap = obs::snapshot_of(wal);
  EXPECT_EQ(snap.counter("resilience.wal_segments_truncated"), 2u);
  // The surviving records are exactly the newer two.
  const auto batches = replay_all(dir);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].sweep_time, 3 * core::kMinute);
  EXPECT_EQ(batches[1].sweep_time, 4 * core::kMinute);
  // Cutoff beyond everything: sealed segments go, the active one stays.
  wal.truncate_before(core::kHour);
  EXPECT_EQ(wal.sealed_segments(), 0u);
  ASSERT_TRUE(wal.append(transport::encode_samples(
      make_batch(core::kHour))).is_ok());
  fs::remove_all(dir);
}

TEST(WalTest, TornTailToleratedOnReplay) {
  const auto dir = fresh_dir("torn");
  {
    WriteAheadLog wal({.dir = dir});
    ASSERT_TRUE(wal.append(transport::encode_samples(
        make_batch(core::kMinute))).is_ok());
    ASSERT_TRUE(wal.append(transport::encode_samples(
        make_batch(2 * core::kMinute))).is_ok());
    wal.simulate_torn_tail();
    EXPECT_TRUE(wal.poisoned());
    // The poisoned log refuses further appends (damage bounded to the tear).
    EXPECT_FALSE(wal.append(transport::encode_samples(
        make_batch(3 * core::kMinute))).is_ok());
    const auto snap = obs::snapshot_of(wal);
    EXPECT_EQ(snap.counter("resilience.wal_append_failures"), 2u);
  }
  ReplayStats stats;
  const auto batches = replay_all(dir, &stats);
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.torn_tails, 1u);
  EXPECT_EQ(stats.corrupt_skipped, 0u);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[1].sweep_time, 2 * core::kMinute);
  fs::remove_all(dir);
}

TEST(WalTest, CorruptRecordSkippedScanContinues) {
  const auto dir = fresh_dir("corrupt");
  std::string segment;
  {
    WriteAheadLog wal({.dir = dir});
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(wal.append(transport::encode_samples(
          make_batch((i + 1) * core::kMinute))).is_ok());
    }
    segment = dir + "/wal-00000001.seg";
  }
  // Flip one byte inside the second record's payload: CRC must catch it,
  // replay must skip that record and still deliver the third.
  std::FILE* f = std::fopen(segment.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::uint32_t len1 = 0;
  ASSERT_EQ(std::fseek(f, 8, SEEK_SET), 0);  // past segment header
  ASSERT_EQ(std::fread(&len1, 4, 1, f), 1u);
  const long second_payload = 8 + 8 + static_cast<long>(len1) + 8;
  ASSERT_EQ(std::fseek(f, second_payload + 3, SEEK_SET), 0);
  unsigned char byte = 0;
  ASSERT_EQ(std::fread(&byte, 1, 1, f), 1u);
  byte ^= 0xFF;
  ASSERT_EQ(std::fseek(f, second_payload + 3, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&byte, 1, 1, f), 1u);
  std::fclose(f);

  ReplayStats stats;
  const auto batches = replay_all(dir, &stats);
  EXPECT_EQ(stats.corrupt_skipped, 1u);
  EXPECT_EQ(stats.torn_tails, 0u);
  EXPECT_EQ(stats.records, 2u);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].sweep_time, core::kMinute);
  EXPECT_EQ(batches[1].sweep_time, 3 * core::kMinute);
  fs::remove_all(dir);
}

TEST(WalTest, BadSegmentHeaderSkipsSegment) {
  const auto dir = fresh_dir("badheader");
  fs::create_directories(dir);
  std::FILE* f = std::fopen((dir + "/wal-00000001.seg").c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not a wal segment", f);
  std::fclose(f);
  ReplayStats stats;
  const auto batches = replay_all(dir, &stats);
  EXPECT_EQ(stats.bad_segments, 1u);
  EXPECT_EQ(stats.segments, 0u);
  EXPECT_TRUE(batches.empty());
  fs::remove_all(dir);
}

TEST(WalTest, MissingDirectoryReplaysEmpty) {
  ReplayStats stats;
  const auto batches = replay_all("/tmp/hpcmon_wal_never_created", &stats);
  EXPECT_TRUE(batches.empty());
  EXPECT_EQ(stats.segments, 0u);
  EXPECT_EQ(stats.bad_segments, 0u);
}

TEST(WalTest, ReopenSealsPriorIncarnationsSegments) {
  const auto dir = fresh_dir("reopen");
  {
    WriteAheadLog wal({.dir = dir});
    ASSERT_TRUE(wal.append(transport::encode_samples(
        make_batch(core::kMinute))).is_ok());
    EXPECT_EQ(wal.active_segment_index(), 1u);
  }
  {
    WriteAheadLog wal({.dir = dir});
    EXPECT_EQ(wal.sealed_segments(), 1u);
    EXPECT_EQ(wal.active_segment_index(), 2u);
    ASSERT_TRUE(wal.append(transport::encode_samples(
        make_batch(2 * core::kMinute))).is_ok());
  }
  const auto batches = replay_all(dir);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].sweep_time, core::kMinute);
  EXPECT_EQ(batches[1].sweep_time, 2 * core::kMinute);
  fs::remove_all(dir);
}

// The WAL consults the generic filesystem fault points (one kWrite op per
// logical append), so these tests script faults by fs-op index.
TEST(WalTest, InjectedErrorFailsOneAppend) {
  const auto dir = fresh_dir("inject_error");
  FaultSpec spec;
  spec.fs_error_at = 2;
  FaultPlan plan(1234, spec);
  {
    WriteAheadLog wal({.dir = dir, .faults = &plan});
    EXPECT_TRUE(wal.append(transport::encode_samples(
        make_batch(core::kMinute))).is_ok());
    EXPECT_FALSE(wal.append(transport::encode_samples(
        make_batch(2 * core::kMinute))).is_ok());
    EXPECT_FALSE(wal.poisoned());  // plain error, not a torn write
    EXPECT_TRUE(wal.append(transport::encode_samples(
        make_batch(3 * core::kMinute))).is_ok());
    const auto snap = obs::snapshot_of(wal);
    EXPECT_EQ(snap.counter("resilience.wal_append_failures"), 1u);
    EXPECT_EQ(snap.counter("resilience.wal_records"), 2u);
  }
  EXPECT_EQ(plan.injected().fs_errors, 1u);
  EXPECT_EQ(plan.fs_ops(), 3u);
  const auto batches = replay_all(dir);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[1].sweep_time, 3 * core::kMinute);
  fs::remove_all(dir);
}

TEST(WalTest, InjectedEnospcFailsAppendWithoutPoisoning) {
  const auto dir = fresh_dir("inject_enospc");
  FaultSpec spec;
  spec.fs_enospc_at = 2;
  FaultPlan plan(1234, spec);
  {
    WriteAheadLog wal({.dir = dir, .faults = &plan});
    EXPECT_TRUE(wal.append(transport::encode_samples(
        make_batch(core::kMinute))).is_ok());
    EXPECT_FALSE(wal.append(transport::encode_samples(
        make_batch(2 * core::kMinute))).is_ok());
    // A full disk rejects the record cleanly; nothing was half-written, so
    // the log is not poisoned and recovers as soon as space returns.
    EXPECT_FALSE(wal.poisoned());
    EXPECT_TRUE(wal.append(transport::encode_samples(
        make_batch(3 * core::kMinute))).is_ok());
  }
  EXPECT_EQ(plan.injected().fs_enospc, 1u);
  const auto batches = replay_all(dir);
  ASSERT_EQ(batches.size(), 2u);
  fs::remove_all(dir);
}

TEST(WalTest, InjectedShortWriteTearsAndPoisons) {
  const auto dir = fresh_dir("inject_short");
  FaultSpec spec;
  spec.fs_short_write_at = 3;
  FaultPlan plan(1234, spec);
  {
    WriteAheadLog wal({.dir = dir, .faults = &plan});
    EXPECT_TRUE(wal.append(transport::encode_samples(
        make_batch(core::kMinute))).is_ok());
    EXPECT_TRUE(wal.append(transport::encode_samples(
        make_batch(2 * core::kMinute))).is_ok());
    EXPECT_FALSE(wal.append(transport::encode_samples(
        make_batch(3 * core::kMinute))).is_ok());
    EXPECT_TRUE(wal.poisoned());
  }
  EXPECT_EQ(plan.injected().fs_short_writes, 1u);
  ReplayStats stats;
  const auto batches = replay_all(dir, &stats);
  EXPECT_EQ(stats.torn_tails, 1u);
  ASSERT_EQ(batches.size(), 2u);
  fs::remove_all(dir);
}

TEST(WalTest, InjectedCrashLooksLikeATornTail) {
  const auto dir = fresh_dir("inject_crash");
  FaultSpec spec;
  spec.fs_crash_at = 2;
  FaultPlan plan(1234, spec);
  {
    WriteAheadLog wal({.dir = dir, .faults = &plan});
    EXPECT_TRUE(wal.append(transport::encode_samples(
        make_batch(core::kMinute))).is_ok());
    EXPECT_FALSE(wal.append(transport::encode_samples(
        make_batch(2 * core::kMinute))).is_ok());
    EXPECT_TRUE(wal.poisoned());
  }
  EXPECT_EQ(plan.injected().fs_crashes, 1u);
  ReplayStats stats;
  const auto batches = replay_all(dir, &stats);
  EXPECT_EQ(stats.torn_tails, 1u);
  ASSERT_EQ(batches.size(), 1u);  // only the pre-crash record survives
  fs::remove_all(dir);
}

// -- The frame path: append() logs the bytes it is handed ---------------------

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  const auto* b = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), b, b + 4);
}

/// What a segment holding `payloads` must contain, byte for byte: the
/// segment header, then [len][crc][payload] per record, with the CRC from
/// the byte-at-a-time oracle.
std::vector<std::uint8_t> expected_segment(
    const std::vector<std::vector<std::uint8_t>>& payloads) {
  std::vector<std::uint8_t> out;
  put_u32(out, 0x4C575048);  // "HPWL"
  put_u32(out, 1);
  for (const auto& p : payloads) {
    put_u32(out, static_cast<std::uint32_t>(p.size()));
    put_u32(out, refcrc::crc32(p.data(), p.size()));
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

SampleBatch random_batch(core::Rng& rng) {
  SampleBatch b;
  b.sweep_time = rng.uniform_int(0, core::kHour);
  b.origin = core::ComponentId{static_cast<std::uint32_t>(rng.engine()())};
  const auto n = rng.uniform_int(0, 300);
  for (std::int64_t i = 0; i < n; ++i) {
    b.samples.push_back(
        {core::SeriesId{static_cast<std::uint32_t>(rng.engine()())},
         rng.uniform_int(-core::kHour, 2 * core::kHour),
         rng.normal(0.0, 1e6)});
  }
  return b;
}

TEST(WalFrameTest, SegmentIsExactlyTheEncodedPayloads) {
  const auto dir = fresh_dir("frame_exact");
  core::Rng rng(2024);
  std::vector<std::vector<std::uint8_t>> logged;
  std::vector<SampleBatch> batches;
  {
    WriteAheadLog wal({.dir = dir});
    for (int i = 0; i < 64; ++i) {
      auto batch = random_batch(rng);
      if (i % 16 == 0) batch.samples.clear();  // zero-sample: writes nothing
      const auto frame = transport::encode_samples(batch);
      ASSERT_TRUE(wal.append(frame).is_ok());
      if (batch.empty()) continue;
      logged.push_back(frame.payload);
      batches.push_back(std::move(batch));
    }
    EXPECT_EQ(wal.sealed_segments(), 0u);
  }
  EXPECT_EQ(read_file(dir + "/wal-00000001.seg"), expected_segment(logged));
  const auto replayed = replay_all(dir);
  ASSERT_EQ(replayed.size(), batches.size());
  for (std::size_t i = 0; i < batches.size(); ++i) {
    EXPECT_EQ(replayed[i].sweep_time, batches[i].sweep_time);
    EXPECT_EQ(replayed[i].origin, batches[i].origin);
    EXPECT_EQ(replayed[i].samples, batches[i].samples);
  }
  fs::remove_all(dir);
}

TEST(WalFrameTest, MalformedFramesFailAndWriteNothing) {
  const auto dir = fresh_dir("frame_malformed");
  const auto segment = dir + "/wal-00000001.seg";
  const auto good = transport::encode_samples(make_batch(core::kMinute));

  auto logs = good;
  logs.type = transport::FrameType::kLogs;
  transport::Frame short_header;
  short_header.payload.assign(good.payload.begin(), good.payload.begin() + 15);
  auto short_body = good;
  short_body.payload.pop_back();  // one byte short of 20 * count

  WriteAheadLog wal({.dir = dir});
  std::vector<std::vector<std::uint8_t>> logged;
  for (const auto* bad : {&logs, &short_header, &short_body}) {
    const auto before = read_file(segment);
    EXPECT_FALSE(wal.append(*bad).is_ok());
    EXPECT_EQ(read_file(segment), before);
    EXPECT_FALSE(wal.poisoned());
    ASSERT_TRUE(wal.append(good).is_ok());
    logged.push_back(good.payload);
  }
  EXPECT_EQ(read_file(segment), expected_segment(logged));
  const auto snap = obs::snapshot_of(wal);
  EXPECT_EQ(snap.counter("resilience.wal_records"), 3u);
  EXPECT_EQ(snap.counter("resilience.wal_append_failures"), 0u);
  fs::remove_all(dir);
}

TEST(WalFrameTest, TrailingBytesAreNotLogged) {
  const auto dir = fresh_dir("frame_trailing");
  const auto batch = make_batch(core::kMinute);
  const auto exact = transport::encode_samples(batch);
  auto padded = exact;
  padded.payload.insert(padded.payload.end(), {0xDE, 0xAD, 0xBE, 0xEF, 0x01});
  {
    WriteAheadLog wal({.dir = dir});
    ASSERT_TRUE(wal.append(padded).is_ok());
    EXPECT_EQ(obs::snapshot_of(wal).counter("resilience.wal_bytes"),
              8u + exact.payload.size());
  }
  EXPECT_EQ(read_file(dir + "/wal-00000001.seg"),
            expected_segment({exact.payload}));
  const auto replayed = replay_all(dir);
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].samples, batch.samples);
  fs::remove_all(dir);
}

TEST(WalFrameTest, TruncateKeepsSegmentWhoseNewestTimeIsASample) {
  const auto dir = fresh_dir("frame_sample_time");
  WriteAheadLog wal({.dir = dir, .segment_bytes = 64});
  ASSERT_TRUE(
      wal.append(transport::encode_samples(make_batch(core::kMinute)))
          .is_ok());
  // Swept at 2 min, but one sample is stamped 10 min: that sample, not the
  // sweep time, is the segment's newest time.
  auto late = make_batch(2 * core::kMinute);
  late.samples.back().time = 10 * core::kMinute;
  ASSERT_TRUE(wal.append(transport::encode_samples(late)).is_ok());
  ASSERT_EQ(wal.sealed_segments(), 2u);
  EXPECT_EQ(wal.truncate_before(5 * core::kMinute), 1u);
  EXPECT_EQ(wal.sealed_segments(), 1u);
  const auto kept = replay_all(dir);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].sweep_time, 2 * core::kMinute);
  EXPECT_EQ(wal.truncate_before(10 * core::kMinute + 1), 1u);
  EXPECT_EQ(wal.sealed_segments(), 0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hpcmon::resilience
