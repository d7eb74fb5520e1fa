// WriteAheadLog: append/replay round-trip, rotation, truncation, torn tails,
// CRC-skipped corruption, injected file-layer faults, and deliver()'s
// retries, priority-aware dead-letter queue and redelivery.
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

}  // namespace
}  // namespace hpcmon::resilience
