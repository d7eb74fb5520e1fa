// WriteAheadLog: append/replay round-trip, rotation, truncation, torn tails,
// CRC-skipped corruption, injected file-layer faults, deliver()'s retries,
// priority-aware dead-letter queue and redelivery, failed flushes, the
// record-length limit every way in shares with replay, and post()'s group
// commit: the same segment bytes as deliver(), a failed group flush, the
// crash drill, and a threaded hammer of post(), deliver() and maintenance.
#include "resilience/wal.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <thread>

#include "core/rng.hpp"
#include "reference_crc32.hpp"
#include "reference_sample_codec.hpp"
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

// -- The frame path: append() logs the batch of the frame it is handed --------

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  const auto* b = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), b, b + 4);
}

/// A segment of `version` holding `payloads`, byte for byte: the segment
/// header, then [len][crc][payload] per record, with the CRC from the
/// byte-at-a-time oracle.
std::vector<std::uint8_t> segment_of(
    std::uint32_t version,
    const std::vector<std::vector<std::uint8_t>>& payloads) {
  std::vector<std::uint8_t> out;
  put_u32(out, 0x4C575048);  // "HPWL"
  put_u32(out, version);
  for (const auto& p : payloads) {
    put_u32(out, static_cast<std::uint32_t>(p.size()));
    put_u32(out, refcrc::crc32(p.data(), p.size()));
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

/// What a segment logging `batches` must contain: version 2, each record
/// the oracle's compact encoding of its batch.
std::vector<std::uint8_t> expected_segment(
    const std::vector<SampleBatch>& batches) {
  std::vector<std::vector<std::uint8_t>> payloads;
  for (const auto& b : batches) payloads.push_back(refsample::encode(b));
  return segment_of(2, payloads);
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// A version-1 segment, as an older binary wrote it: each record is the
/// batch's fixed-width frame payload.
void write_v1_segment(const std::string& path,
                      const std::vector<SampleBatch>& batches) {
  std::vector<std::vector<std::uint8_t>> payloads;
  for (const auto& b : batches) {
    payloads.push_back(transport::encode_samples(b).payload);
  }
  write_file(path, segment_of(1, payloads));
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
  std::vector<SampleBatch> batches;
  {
    WriteAheadLog wal({.dir = dir});
    for (int i = 0; i < 64; ++i) {
      auto batch = random_batch(rng);
      if (i % 16 == 0) batch.samples.clear();  // zero-sample: writes nothing
      ASSERT_TRUE(wal.append(transport::encode_samples(batch)).is_ok());
      if (batch.empty()) continue;
      batches.push_back(std::move(batch));
    }
    EXPECT_EQ(wal.sealed_segments(), 0u);
  }
  EXPECT_EQ(read_file(dir + "/wal-00000001.seg"), expected_segment(batches));
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
  const auto batch = make_batch(core::kMinute);
  const auto good = transport::encode_samples(batch);

  auto logs = good;
  logs.type = transport::FrameType::kLogs;
  transport::Frame short_header;
  short_header.payload.assign(good.payload.begin(), good.payload.begin() + 15);
  auto short_body = good;
  short_body.payload.pop_back();  // one byte short of 20 * count

  WriteAheadLog wal({.dir = dir});
  std::vector<SampleBatch> logged;
  for (const auto* bad : {&logs, &short_header, &short_body}) {
    const auto before = read_file(segment);
    EXPECT_FALSE(wal.append(*bad).is_ok());
    EXPECT_EQ(read_file(segment), before);
    EXPECT_FALSE(wal.poisoned());
    ASSERT_TRUE(wal.append(good).is_ok());
    logged.push_back(batch);
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
              8u + refsample::encode(batch).size());
  }
  EXPECT_EQ(read_file(dir + "/wal-00000001.seg"), expected_segment({batch}));
  const auto replayed = replay_all(dir);
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].samples, batch.samples);
  fs::remove_all(dir);
}

/// Swept at 2 min, but one sample is stamped 10 min: that sample, not the
/// sweep time, is the newest time of the segment that logs it.
SampleBatch late_batch() {
  auto late = make_batch(2 * core::kMinute);
  late.samples.back().time = 10 * core::kMinute;
  return late;
}

/// `wal` has sealed a segment logging make_batch(1 min), then one logging
/// late_batch(): truncation goes by each one's newest sample time.
void expect_truncate_goes_by_newest_sample(WriteAheadLog& wal,
                                           const std::string& dir) {
  ASSERT_EQ(wal.sealed_segments(), 2u);
  EXPECT_EQ(wal.truncate_before(5 * core::kMinute), 1u);
  EXPECT_EQ(wal.sealed_segments(), 1u);
  const auto kept = replay_all(dir);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].sweep_time, 2 * core::kMinute);
  EXPECT_EQ(wal.truncate_before(10 * core::kMinute + 1), 1u);
  EXPECT_EQ(wal.sealed_segments(), 0u);
}

TEST(WalFrameTest, TruncateKeepsSegmentWhoseNewestTimeIsASample) {
  const auto dir = fresh_dir("frame_sample_time");
  WriteAheadLog wal({.dir = dir, .segment_bytes = 64});
  ASSERT_TRUE(
      wal.append(transport::encode_samples(make_batch(core::kMinute)))
          .is_ok());
  ASSERT_TRUE(wal.append(transport::encode_samples(late_batch())).is_ok());
  expect_truncate_goes_by_newest_sample(wal, dir);
  fs::remove_all(dir);
}

TEST(WalFrameTest, TruncateKeepsVersion1SegmentWhoseNewestTimeIsASample) {
  // The same two segments as an older binary left them: reopening takes
  // each one's newest time from its fixed-width records.
  const auto dir = fresh_dir("frame_sample_time_v1");
  fs::create_directories(dir);
  write_v1_segment(dir + "/wal-00000001.seg", {make_batch(core::kMinute)});
  write_v1_segment(dir + "/wal-00000002.seg", {late_batch()});
  WriteAheadLog wal({.dir = dir});
  expect_truncate_goes_by_newest_sample(wal, dir);
  fs::remove_all(dir);
}

// -- Segment versions: version 1 is still read --------------------------------

TEST(WalVersionTest, Version1SegmentsReplayAheadOfVersion2InIndexOrder) {
  const auto dir = fresh_dir("mixed_versions");
  fs::create_directories(dir);
  std::vector<SampleBatch> want;
  for (int m = 1; m <= 5; ++m) want.push_back(make_batch(m * core::kMinute));
  write_v1_segment(dir + "/wal-00000001.seg", {want[0], want[1]});
  write_v1_segment(dir + "/wal-00000002.seg", {want[2]});
  {
    WriteAheadLog wal({.dir = dir});
    EXPECT_EQ(wal.sealed_segments(), 2u);
    EXPECT_EQ(wal.active_segment_index(), 3u);
    ASSERT_TRUE(wal.append(transport::encode_samples(want[3])).is_ok());
    ASSERT_TRUE(wal.rotate().is_ok());
    ASSERT_TRUE(wal.append(transport::encode_samples(want[4])).is_ok());
  }
  EXPECT_EQ(read_file(dir + "/wal-00000003.seg"), expected_segment({want[3]}));
  EXPECT_EQ(read_file(dir + "/wal-00000004.seg"), expected_segment({want[4]}));
  ReplayStats stats;
  const auto batches = replay_all(dir, &stats);
  EXPECT_EQ(stats.segments, 4u);
  EXPECT_EQ(stats.records, 5u);
  EXPECT_EQ(stats.samples, 40u);
  EXPECT_EQ(stats.bad_segments, 0u);
  EXPECT_EQ(stats.corrupt_skipped, 0u);
  ASSERT_EQ(batches.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(batches[i].sweep_time, want[i].sweep_time) << i;
    EXPECT_EQ(batches[i].origin, want[i].origin) << i;
    EXPECT_EQ(batches[i].samples, want[i].samples) << i;
  }
  fs::remove_all(dir);
}

TEST(WalVersionTest, UnknownVersionIsABadSegment) {
  const auto batch = make_batch(core::kMinute);
  for (const std::uint32_t version : {0u, 3u, 0xFFFFFFFFu}) {
    const auto dir = fresh_dir("unknown_version");
    fs::create_directories(dir);
    // A valid record under an unknown version, then a good segment.
    write_file(dir + "/wal-00000001.seg",
               segment_of(version, {refsample::encode(batch)}));
    write_file(dir + "/wal-00000002.seg", expected_segment({batch}));
    ReplayStats stats;
    const auto batches = replay_all(dir, &stats);
    EXPECT_EQ(stats.bad_segments, 1u) << version;
    EXPECT_EQ(stats.segments, 1u) << version;
    ASSERT_EQ(batches.size(), 1u) << version;
    EXPECT_EQ(batches[0].samples, batch.samples);
    fs::remove_all(dir);
  }
}

// -- deliver(): retries, the dead-letter queue, redelivery -------------------

/// A one-sample frame tagged by its sweep minute and class.
transport::Frame frame(int minute,
                       core::Priority priority = core::Priority::kStandard) {
  auto f = transport::encode_samples(make_batch(minute * core::kMinute, 1));
  f.priority = priority;
  return f;
}

int minute_of(const transport::Frame& f) {
  const auto b = transport::decode_samples(f);
  EXPECT_TRUE(b.is_ok());
  return static_cast<int>(b.value().sweep_time / core::kMinute);
}

std::vector<int> parked_minutes(const WriteAheadLog& wal) {
  std::vector<int> out;
  for (const auto& f : wal.dead_letters()) out.push_back(minute_of(f));
  return out;
}

TEST(WalDeliveryTest, RetriesUntilTransientFailureClears) {
  const auto dir = fresh_dir("deliver_retry");
  // Try 1 draws the delivery fault; try 2 reaches the file and fails there
  // (fs op 1); try 3 is logged.
  FaultSpec spec;
  spec.delivery_error_at = 1;
  spec.fs_error_at = 1;
  FaultPlan plan(1, spec);
  WriteAheadLog wal({.dir = dir, .faults = &plan});
  EXPECT_TRUE(wal.deliver(frame(1)));
  const auto snap = obs::snapshot_of(wal);
  EXPECT_EQ(snap.counter("resilience.delivered_frames"), 1u);
  EXPECT_EQ(snap.counter("resilience.delivery_retries"), 2u);
  EXPECT_EQ(snap.counter("resilience.delivery_failures"), 0u);
  EXPECT_EQ(snap.counter("resilience.wal_records"), 1u);
  EXPECT_EQ(snap.counter("resilience.wal_append_failures"), 1u);
  EXPECT_EQ(wal.dead_letter_count(), 0u);
  fs::remove_all(dir);
}

TEST(WalDeliveryTest, ExhaustedFramesAreDeadLettered) {
  const auto dir = fresh_dir("deliver_exhausted");
  FaultSpec spec;
  spec.fs_error_p = 1.0;
  FaultPlan plan(1, spec);
  WriteAheadLog wal({.dir = dir, .faults = &plan});
  EXPECT_FALSE(wal.deliver(frame(1)));
  const auto snap = obs::snapshot_of(wal);
  EXPECT_EQ(snap.counter("resilience.delivery_retries"),
            static_cast<std::uint64_t>(WriteAheadLog::kDeliveryAttempts - 1));
  EXPECT_EQ(snap.counter("resilience.delivery_failures"), 1u);
  EXPECT_EQ(snap.counter("resilience.dead_letters"), 1u);
  EXPECT_EQ(snap.gauge("resilience.dlq_fill"),
            1.0 / static_cast<double>(WalOptions{}.dead_letter_cap));
  EXPECT_EQ(plan.fs_ops(),
            static_cast<std::uint64_t>(WriteAheadLog::kDeliveryAttempts));
  EXPECT_EQ(parked_minutes(wal), std::vector<int>{1});
  fs::remove_all(dir);
}

TEST(WalDeliveryTest, DeadLetterQueueIsBounded) {
  const auto dir = fresh_dir("deliver_bounded");
  FaultSpec spec;
  spec.delivery_error_p = 1.0;
  FaultPlan plan(1, spec);
  WriteAheadLog wal({.dir = dir, .dead_letter_cap = 2, .faults = &plan});
  wal.deliver(frame(1));
  wal.deliver(frame(2));
  wal.deliver(frame(3));  // evicts frame 1, the oldest of its class
  EXPECT_EQ(parked_minutes(wal), (std::vector<int>{2, 3}));
  const auto snap = obs::snapshot_of(wal);
  EXPECT_EQ(snap.counter("resilience.dead_letter_evictions"), 1u);
  EXPECT_EQ(snap.counter("resilience.dead_letters"), 3u);
  EXPECT_EQ(snap.gauge("resilience.dlq_fill"), 1.0);
  fs::remove_all(dir);
}

TEST(WalDeliveryTest, EvictionDropsTheLowestClassAndTurnsAwayALowerNewcomer) {
  const auto dir = fresh_dir("deliver_priority");
  FaultSpec spec;
  spec.delivery_error_p = 1.0;
  FaultPlan plan(1, spec);
  WriteAheadLog wal({.dir = dir, .dead_letter_cap = 2, .faults = &plan});
  wal.deliver(frame(1, core::Priority::kCritical));
  wal.deliver(frame(2, core::Priority::kBulk));
  // Full: a standard frame evicts the bulk one, not the older critical one.
  wal.deliver(frame(3, core::Priority::kStandard));
  EXPECT_EQ(parked_minutes(wal), (std::vector<int>{1, 3}));
  // Everything parked outranks a further bulk frame: it is turned away.
  wal.deliver(frame(4, core::Priority::kBulk));
  EXPECT_EQ(parked_minutes(wal), (std::vector<int>{1, 3}));
  EXPECT_EQ(wal.dead_letters().front().priority, core::Priority::kCritical);
  const auto snap = obs::snapshot_of(wal);
  EXPECT_EQ(snap.counter("resilience.delivery_failures"), 4u);
  EXPECT_EQ(snap.counter("resilience.dead_letters"), 3u);
  EXPECT_EQ(snap.counter("resilience.dead_letter_evictions"), 2u);
  fs::remove_all(dir);
}

TEST(WalDeliveryTest, RedeliverFlushesQueueAfterRotate) {
  const auto dir = fresh_dir("deliver_redeliver");
  // The first record write tears and poisons the log: every later append
  // fails until rotate() opens a fresh segment.
  FaultSpec spec;
  spec.fs_short_write_at = 1;
  FaultPlan plan(1, spec);
  {
    WriteAheadLog wal({.dir = dir, .faults = &plan});
    EXPECT_FALSE(wal.deliver(frame(1)));
    EXPECT_FALSE(wal.deliver(frame(2)));
    ASSERT_EQ(wal.dead_letter_count(), 2u);
    // Still poisoned: nothing redelivered, nothing lost.
    EXPECT_EQ(wal.redeliver(), 0u);
    EXPECT_EQ(parked_minutes(wal), (std::vector<int>{1, 2}));
    ASSERT_TRUE(wal.rotate().is_ok());
    EXPECT_EQ(wal.redeliver(), 2u);
    EXPECT_EQ(wal.dead_letter_count(), 0u);
    const auto snap = obs::snapshot_of(wal);
    EXPECT_EQ(snap.counter("resilience.redelivered"), 2u);
    EXPECT_EQ(snap.gauge("resilience.dlq_fill"), 0.0);
  }
  ReplayStats stats;
  const auto batches = replay_all(dir, &stats);
  EXPECT_EQ(stats.torn_tails, 1u);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].sweep_time, core::kMinute);
  EXPECT_EQ(batches[1].sweep_time, 2 * core::kMinute);
  fs::remove_all(dir);
}

TEST(WalDeliveryTest, FailedFlushLogsNothingAndParksTheFrame) {
  // Every write succeeds; the flush after it fails (the first flush is
  // scripted to). The record is not logged, so append() reports it,
  // deliver() parks the frame unless its caller keeps it, and the heal
  // logs it again.
  const auto dir = fresh_dir("deliver_flush");
  FaultSpec spec;
  spec.flush_error_at = 1;
  FaultPlan plan(1, spec);
  {
    WriteAheadLog wal({.dir = dir, .faults = &plan});
    EXPECT_FALSE(wal.deliver(frame(1)));
    EXPECT_TRUE(wal.poisoned());
    EXPECT_EQ(parked_minutes(wal), std::vector<int>{1});
    EXPECT_FALSE(
        wal.deliver(frame(2), WriteAheadLog::OnFailure::kCallerKeeps));
    EXPECT_FALSE(wal.append(frame(3)).is_ok());
    EXPECT_EQ(parked_minutes(wal), std::vector<int>{1});
    auto snap = obs::snapshot_of(wal);
    EXPECT_EQ(snap.counter("resilience.wal_records"), 0u);
    EXPECT_EQ(snap.counter("resilience.delivered_frames"), 0u);
    EXPECT_EQ(snap.counter("resilience.delivery_failures"), 2u);
    EXPECT_EQ(plan.injected().flush_errors, 1u);
    ASSERT_TRUE(wal.rotate().is_ok());
    EXPECT_EQ(wal.redeliver(), 1u);
    snap = obs::snapshot_of(wal);
    EXPECT_EQ(snap.counter("resilience.wal_records"), 1u);
    EXPECT_EQ(snap.counter("resilience.redelivered"), 1u);
  }
  // The failed flush's bytes reached the first segment after all, as they
  // may after a real error; the store skips the replayed duplicate.
  const auto batches = replay_all(dir);
  ASSERT_EQ(batches.size(), 2u);
  for (const auto& b : batches) EXPECT_EQ(b.sweep_time, core::kMinute);
  fs::remove_all(dir);
}

TEST(WalDeliveryTest, FaultPlanDrivesInjectedFailures) {
  const auto dir = fresh_dir("deliver_faultplan");
  FaultSpec spec;
  spec.delivery_error_at = 1;
  FaultPlan plan(42, spec);
  WriteAheadLog wal({.dir = dir, .faults = &plan});
  // The first try eats the injected fault; the retry is logged.
  EXPECT_TRUE(wal.deliver(frame(1)));
  auto snap = obs::snapshot_of(wal);
  EXPECT_EQ(snap.counter("resilience.delivery_retries"), 1u);
  EXPECT_EQ(snap.counter("resilience.delivered_frames"), 1u);
  EXPECT_EQ(snap.counter("resilience.wal_records"), 1u);
  EXPECT_EQ(plan.injected().delivery_errors, 1u);
  EXPECT_EQ(plan.fs_ops(), 1u);  // the faulted try never reached the file
  // Redelivery draws the delivery fault too: one draw per dead letter.
  spec = {};
  spec.delivery_error_p = 1.0;
  plan.set_spec(spec);
  EXPECT_FALSE(wal.deliver(frame(2)));
  EXPECT_EQ(wal.redeliver(), 0u);
  EXPECT_EQ(plan.injected().delivery_errors,
            1u + WriteAheadLog::kDeliveryAttempts + 1u);
  plan.set_spec({});
  EXPECT_EQ(wal.redeliver(), 1u);
  snap = obs::snapshot_of(wal);
  EXPECT_EQ(snap.counter("resilience.redelivered"), 1u);
  EXPECT_EQ(snap.counter("resilience.wal_records"), 2u);
  EXPECT_EQ(plan.fs_ops(), 2u);
  fs::remove_all(dir);
}

TEST(WalDeliveryTest, SeededFaultRunMatchesThePinnedLedger) {
  // 150 frames of three classes through deliver() under seeded delivery
  // faults, file errors and short writes, with rotate() + redeliver()
  // every 12 frames. The numbers were recorded from the retry wrapper this
  // method replaced (a retry + dead-letter class around a fault-drawing
  // wrapper around append()). They match only if every try still draws
  // the delivery fault before the file fault, in the same order.
  const auto dir = fresh_dir("deliver_golden");
  FaultSpec spec;
  spec.delivery_error_p = 0.3;
  spec.fs_error_p = 0.15;
  spec.fs_short_write_p = 0.02;
  FaultPlan plan(2027, spec);
  std::size_t logged = 0;
  std::size_t redelivered = 0;
  {
    WriteAheadLog wal({.dir = dir,
                       .segment_bytes = 2048,
                       .dead_letter_cap = 5,
                       .faults = &plan});
    for (int i = 0; i < 150; ++i) {
      SampleBatch b;
      b.sweep_time = (i + 1) * core::kSecond;
      for (int s = 0; s < 1 + i % 4; ++s) {
        b.samples.push_back({core::SeriesId{static_cast<std::uint32_t>(s)},
                             b.sweep_time + s, i * 0.5 + s});
      }
      auto f = transport::encode_samples(b);
      f.priority = static_cast<core::Priority>((i * 7 + i / 5) % 3);
      if (wal.deliver(f)) ++logged;
      if (i % 12 == 11) {
        ASSERT_TRUE(wal.rotate().is_ok());
        redelivered += wal.redeliver();
      }
    }
    const auto snap = obs::snapshot_of(wal);
    EXPECT_EQ(snap.counter("resilience.delivered_frames"), 128u);
    EXPECT_EQ(snap.counter("resilience.delivery_retries"), 106u);
    EXPECT_EQ(snap.counter("resilience.delivery_failures"), 22u);
    EXPECT_EQ(snap.counter("resilience.dead_letters"), 21u);
    EXPECT_EQ(snap.counter("resilience.dead_letter_evictions"), 6u);
    EXPECT_EQ(snap.counter("resilience.redelivered"), 13u);
    EXPECT_DOUBLE_EQ(snap.gauge("resilience.dlq_fill"), 0.6);
    EXPECT_EQ(snap.counter("resilience.wal_records"), 141u);
    EXPECT_EQ(snap.counter("resilience.wal_append_failures"), 55u);
    EXPECT_EQ(snap.counter("resilience.wal_samples"), 353u);
    EXPECT_EQ(snap.counter("resilience.wal_segments_created"), 13u);
    std::vector<std::pair<core::TimePoint, core::Priority>> parked;
    for (const auto& f : wal.dead_letters()) {
      parked.emplace_back(transport::decode_samples(f).value().sweep_time,
                          f.priority);
    }
    const std::vector<std::pair<core::TimePoint, core::Priority>> want = {
        {114 * core::kSecond, core::Priority::kCritical},
        {131 * core::kSecond, core::Priority::kCritical},
        {138 * core::kSecond, core::Priority::kBulk}};
    EXPECT_EQ(parked, want);
  }
  EXPECT_EQ(logged, 128u);
  EXPECT_EQ(redelivered, 13u);
  const auto injected = plan.injected();
  EXPECT_EQ(injected.delivery_errors, 87u);
  EXPECT_EQ(injected.fs_errors, 31u);
  EXPECT_EQ(injected.fs_short_writes, 1u);
  ReplayStats stats;
  replay_all(dir, &stats);
  EXPECT_EQ(stats.segments, 13u);
  EXPECT_EQ(stats.records, 141u);
  EXPECT_EQ(stats.samples, 353u);
  EXPECT_EQ(stats.torn_tails, 1u);
  EXPECT_EQ(stats.corrupt_skipped, 0u);
  fs::remove_all(dir);
}

// -- The record-length limit replay reads ----------------------------------

/// A valid sample frame of `count` zeroed records, built in place.
transport::Frame zeroed_frame(std::uint32_t count) {
  transport::Frame f;
  f.type = transport::FrameType::kSamples;
  f.payload.assign(transport::kSampleHeaderBytes +
                       transport::kSampleRecordBytes * std::size_t{count},
                   0);
  std::memcpy(f.payload.data() + transport::kSampleCountOffset, &count, 4);
  return f;
}

TEST(WalLimitTest, RecordPastTheReplayLimitIsRefusedAndWritesNothing) {
  // 3,355,444 samples make a 67,108,896-byte record, 32 bytes past what
  // replay reads. When append() took it, all three appends below returned
  // ok, and replay stopped at the big record's length header as a torn
  // tail, losing the acknowledged record after it too.
  const auto dir = fresh_dir("too_large");
  const auto big = zeroed_frame(3'355'444);
  ASSERT_GT(big.payload.size(), WriteAheadLog::kMaxRecordBytes);
  {
    WriteAheadLog wal({.dir = dir});
    ASSERT_TRUE(wal.append(frame(1)).is_ok());
    const auto st = wal.append(big);
    EXPECT_EQ(st.code(), core::StatusCode::kTooLarge) << st.message();
    ASSERT_TRUE(wal.append(frame(2)).is_ok());
    const auto posted = wal.post(big);
    ASSERT_FALSE(posted.is_ok());
    EXPECT_EQ(posted.status().code(), core::StatusCode::kTooLarge);
    EXPECT_FALSE(wal.deliver(big));
    EXPECT_EQ(wal.dead_letter_count(), 0u);  // a retry could never log it
    EXPECT_FALSE(wal.poisoned());
    const auto snap = obs::snapshot_of(wal);
    EXPECT_EQ(snap.counter("resilience.wal_append_failures"), 3u);
    EXPECT_EQ(snap.counter("resilience.wal_records"), 2u);
  }
  ReplayStats stats;
  const auto batches = replay_all(dir, &stats);
  EXPECT_EQ(stats.torn_tails, 0u);
  EXPECT_EQ(stats.records, 2u);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[1].sweep_time, 2 * core::kMinute);
  fs::remove_all(dir);
}

TEST(WalLimitTest, TheLimitGoesByTheWorstCaseCompactRecord) {
  // A compact sample takes at most 24 bytes, so a frame of `kMost` samples
  // may make a record of exactly kMaxRecordBytes and is logged; one sample
  // more is refused by every way in and writes nothing.
  constexpr std::uint32_t kMost =
      (WriteAheadLog::kMaxRecordBytes - transport::kSampleHeaderBytes) /
      transport::kCompactSampleMaxBytes;
  static_assert(transport::kSampleHeaderBytes +
                    transport::kCompactSampleMaxBytes * kMost ==
                WriteAheadLog::kMaxRecordBytes);
  const auto dir = fresh_dir("limit_boundary");
  const auto segment = dir + "/wal-00000001.seg";
  {
    WriteAheadLog wal({.dir = dir});
    {
      const auto over = zeroed_frame(kMost + 1);
      const auto before = read_file(segment);
      EXPECT_EQ(wal.append(over).code(), core::StatusCode::kTooLarge);
      const auto posted = wal.post(over);
      ASSERT_FALSE(posted.is_ok());
      EXPECT_EQ(posted.status().code(), core::StatusCode::kTooLarge);
      EXPECT_FALSE(wal.deliver(over));
      EXPECT_EQ(wal.dead_letter_count(), 0u);
      EXPECT_EQ(read_file(segment), before);
    }
    ASSERT_TRUE(wal.append(zeroed_frame(kMost)).is_ok());
    const auto snap = obs::snapshot_of(wal);
    EXPECT_EQ(snap.counter("resilience.wal_append_failures"), 3u);
    EXPECT_EQ(snap.counter("resilience.wal_records"), 1u);
    EXPECT_EQ(snap.counter("resilience.wal_samples"), kMost);
  }
  ReplayStats stats;
  replay_all(dir, &stats);
  EXPECT_EQ(stats.torn_tails, 0u);
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(stats.samples, kMost);
  fs::remove_all(dir);
}

// -- post(): group commit on the writer thread --------------------------------

/// Every segment file in `dir`, by name.
std::map<std::string, std::vector<std::uint8_t>> segment_files(
    const std::string& dir) {
  std::map<std::string, std::vector<std::uint8_t>> out;
  for (const auto& e : fs::directory_iterator(dir)) {
    out[e.path().filename().string()] = read_file(e.path().string());
  }
  return out;
}

TEST(WalGroupTest, PostedFramesWriteTheBytesDeliverWrites) {
  // One producer's frame sequence through deliver() and through post():
  // every segment is byte-identical, rotation points included (16 KiB
  // segments rotate every few records). Two frames larger than a group
  // buffer and some zero-sample frames ride along.
  core::Rng rng(77);
  std::vector<transport::Frame> frames;
  for (int i = 0; i < 240; ++i) {
    auto batch = random_batch(rng);
    if (i % 29 == 0) batch.samples.clear();
    frames.push_back(transport::encode_samples(batch));
    frames.back().priority = static_cast<core::Priority>(i % 3);
    if (i == 100 || i == 101) frames.push_back(zeroed_frame(60'000));
  }
  ASSERT_GT(frames[101].payload.size(), WriteAheadLog::kGroupBytes);
  constexpr std::size_t kSegmentBytes = 16u << 10;
  const auto delivered_dir = fresh_dir("group_deliver");
  const auto posted_dir = fresh_dir("group_post");
  {
    WriteAheadLog wal({.dir = delivered_dir, .segment_bytes = kSegmentBytes});
    for (const auto& f : frames) ASSERT_TRUE(wal.deliver(f));
  }
  {
    WriteAheadLog wal({.dir = posted_dir, .segment_bytes = kSegmentBytes});
    std::uint64_t last = 0;
    for (const auto& f : frames) {
      const auto ticket = wal.post(f);
      ASSERT_TRUE(ticket.is_ok()) << ticket.message();
      if (ticket.value() == 0) continue;  // zero samples: nothing to log
      EXPECT_EQ(ticket.value(), last + 1);
      last = ticket.value();
    }
    EXPECT_TRUE(wal.wait_decided(last));
    const auto snap = obs::snapshot_of(wal);
    EXPECT_EQ(snap.counter("resilience.wal_records"), last);
    EXPECT_EQ(snap.counter("resilience.delivered_frames"), last);
  }
  const auto want = segment_files(delivered_dir);
  EXPECT_GT(want.size(), 20u);
  EXPECT_EQ(segment_files(posted_dir), want);
  fs::remove_all(delivered_dir);
  fs::remove_all(posted_dir);
}

TEST(WalGroupTest, DeliverWritesPendingPostsFirst) {
  const auto dir = fresh_dir("group_order");
  {
    WriteAheadLog wal({.dir = dir});
    for (int m = 1; m <= 50; ++m) ASSERT_TRUE(wal.post(frame(m)).is_ok());
    ASSERT_TRUE(wal.deliver(frame(51)));
    // deliver() returned, so every earlier post is decided too.
    EXPECT_TRUE(wal.wait_decided(50));
  }
  const auto batches = replay_all(dir);
  ASSERT_EQ(batches.size(), 51u);
  for (int m = 1; m <= 51; ++m) {
    EXPECT_EQ(batches[m - 1].sweep_time, m * core::kMinute);
  }
  fs::remove_all(dir);
}

TEST(WalGroupTest, AbandonKeepsExactlyTheDecidedRecords) {
  // The crash drill: whatever the writer had not taken is gone from the
  // log, and wait_decided() says so for exactly those tickets.
  const auto dir = fresh_dir("group_abandon");
  constexpr int kFrames = 400;
  std::uint64_t decided = 0;
  {
    WriteAheadLog wal({.dir = dir});
    for (int m = 1; m <= kFrames; ++m) {
      ASSERT_EQ(wal.post(frame(m)).value(), static_cast<std::uint64_t>(m));
    }
    wal.abandon();
    EXPECT_FALSE(wal.post(frame(kFrames + 1)).is_ok());
    for (std::uint64_t t = 1; t <= kFrames; ++t) {
      if (!wal.wait_decided(t)) break;
      decided = t;
    }
    for (std::uint64_t t = decided + 1; t <= kFrames; ++t) {
      EXPECT_FALSE(wal.wait_decided(t)) << t;
    }
    EXPECT_EQ(obs::snapshot_of(wal).counter("resilience.wal_records"),
              decided);
  }
  const auto batches = replay_all(dir);
  ASSERT_EQ(batches.size(), decided);
  for (std::size_t i = 0; i < batches.size(); ++i) {
    EXPECT_EQ(batches[i].sweep_time,
              static_cast<core::TimePoint>(i + 1) * core::kMinute);
  }
  fs::remove_all(dir);
}

TEST(WalGroupTest, FailedGroupFlushParksTheGroupBeforeDecidingIt) {
  // The first flush fails after every write of its group succeeded. How
  // the writer grouped the posts does not matter: that group's records
  // are parked before their tickets count as decided, and the poisoned log
  // parks every later one, so all of them wait in order for the heal.
  const auto dir = fresh_dir("group_flush");
  constexpr int kFrames = 6;
  FaultSpec spec;
  spec.flush_error_at = 1;
  FaultPlan plan(1, spec);
  {
    WriteAheadLog wal({.dir = dir, .faults = &plan});
    std::uint64_t last = 0;
    for (int m = 1; m <= kFrames; ++m) last = wal.post(frame(m)).value();
    ASSERT_TRUE(wal.wait_decided(last));
    EXPECT_EQ(parked_minutes(wal), (std::vector<int>{1, 2, 3, 4, 5, 6}));
    const auto snap = obs::snapshot_of(wal);
    EXPECT_EQ(snap.counter("resilience.wal_records"), 0u);
    EXPECT_EQ(snap.counter("resilience.delivered_frames"), 0u);
    EXPECT_EQ(snap.counter("resilience.delivery_failures"),
              static_cast<std::uint64_t>(kFrames));
    ASSERT_TRUE(wal.rotate().is_ok());
    EXPECT_EQ(wal.redeliver(), static_cast<std::size_t>(kFrames));
  }
  // The healed segment holds the group in order. Ahead of it, the first
  // segment may hold whatever the failed flush wrote after all.
  const auto batches = replay_all(dir);
  ASSERT_GE(batches.size(), static_cast<std::size_t>(kFrames));
  const std::size_t healed = batches.size() - kFrames;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    const auto m = static_cast<core::TimePoint>(
        i < healed ? i + 1 : i - healed + 1);
    EXPECT_EQ(batches[i].sweep_time, m * core::kMinute) << i;
  }
  fs::remove_all(dir);
}

TEST(WalThreadedTest, PostDeliverAndMaintenanceLogEveryRecordOnce) {
  // The router posts, a relay apply delivers, and the timeline rotates,
  // redelivers and truncates, all at once. Replay holds every record
  // exactly once, each producer's in its call order.
  const auto dir = fresh_dir("threaded_hammer");
  constexpr int kPerProducer = 300;
  const auto producer_frame = [](std::uint32_t origin, int i) {
    SampleBatch b;
    b.sweep_time = (i + 1) * core::kSecond;
    b.origin = core::ComponentId{origin};
    for (int s = 0; s < 1 + i % 40; ++s) {
      b.samples.push_back({core::SeriesId{static_cast<std::uint32_t>(s)},
                           b.sweep_time + s, i + 0.5 * s});
    }
    return transport::encode_samples(b);
  };
  std::atomic<int> producers_done{0};
  {
    WriteAheadLog wal({.dir = dir, .segment_bytes = 8u << 10});
    std::thread router([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        const auto ticket = wal.post(producer_frame(1, i));
        ASSERT_TRUE(ticket.is_ok());
        if (i % 16 == 15) {
          EXPECT_TRUE(wal.wait_decided(ticket.value()));
        }
      }
      producers_done.fetch_add(1);
    });
    std::thread relay([&] {
      constexpr auto keep = WriteAheadLog::OnFailure::kCallerKeeps;
      for (int i = 0; i < kPerProducer; ++i) {
        EXPECT_TRUE(wal.deliver(producer_frame(2, i), keep));
      }
      producers_done.fetch_add(1);
    });
    std::thread timeline([&] {
      while (producers_done.load() < 2) {
        EXPECT_TRUE(wal.rotate().is_ok());
        EXPECT_EQ(wal.redeliver(), 0u);
        // Below every sample time: only segments that logged nothing go.
        wal.truncate_before(1);
        std::this_thread::yield();
      }
    });
    router.join();
    relay.join();
    timeline.join();
    ASSERT_TRUE(wal.sync().is_ok());
    EXPECT_EQ(obs::snapshot_of(wal).counter("resilience.wal_records"),
              2u * kPerProducer);
  }
  std::map<std::uint32_t, std::vector<core::TimePoint>> order;
  for (const auto& b : replay_all(dir)) {
    order[core::raw(b.origin)].push_back(b.sweep_time);
  }
  ASSERT_EQ(order.size(), 2u);
  for (const auto& [origin, sweeps] : order) {
    ASSERT_EQ(sweeps.size(), static_cast<std::size_t>(kPerProducer))
        << "origin " << origin;
    for (int i = 0; i < kPerProducer; ++i) {
      EXPECT_EQ(sweeps[i], (i + 1) * core::kSecond) << "origin " << origin;
    }
  }
  fs::remove_all(dir);
}

TEST(WalBytesTest, WalBytesCountTheBytesOnDisk) {
  // Appends, posts, a rotation and a redelivery: every byte in the segment
  // files is a segment header or a record resilience.wal_bytes counted.
  const auto dir = fresh_dir("bytes_on_disk");
  core::Rng rng(99);
  FaultPlan plan(1, {});
  std::uint64_t counted = 0;
  std::uint64_t segments = 0;
  {
    WriteAheadLog wal({.dir = dir, .segment_bytes = 4096, .faults = &plan});
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(
          wal.append(transport::encode_samples(random_batch(rng))).is_ok());
    }
    std::uint64_t last = 0;
    for (int i = 0; i < 8; ++i) {
      last = wal.post(transport::encode_samples(random_batch(rng))).value();
    }
    ASSERT_TRUE(wal.wait_decided(last));
    ASSERT_TRUE(wal.rotate().is_ok());
    FaultSpec spec;
    spec.delivery_error_p = 1.0;
    plan.set_spec(spec);
    EXPECT_FALSE(wal.deliver(frame(90)));
    plan.set_spec({});
    EXPECT_EQ(wal.redeliver(), 1u);
    ASSERT_TRUE(wal.sync().is_ok());
    const auto snap = obs::snapshot_of(wal);
    counted = snap.counter("resilience.wal_bytes");
    segments = snap.counter("resilience.wal_segments_created");
    EXPECT_EQ(snap.counter("resilience.wal_records"), 17u);
  }
  std::uint64_t on_disk = 0;
  for (const auto& [name, bytes] : segment_files(dir)) on_disk += bytes.size();
  EXPECT_GT(segments, 3u);
  EXPECT_EQ(counted + 8 * segments, on_disk);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hpcmon::resilience
