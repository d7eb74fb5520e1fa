#include "store/chunk.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/rng.hpp"
#include "store/bitstream.hpp"

namespace hpcmon::store {
namespace {

using core::TimedValue;

TEST(BitstreamTest, RoundTripMixedWidths) {
  BitWriter w;
  w.write(0b101, 3);
  w.write(0xDEADBEEF, 32);
  w.write_bit(true);
  w.write(0x1234567890ABCDEFull, 64);
  const auto bytes = w.bytes();
  BitReader r(bytes);
  EXPECT_EQ(r.read(3), 0b101u);
  EXPECT_EQ(r.read(32), 0xDEADBEEFu);
  EXPECT_TRUE(r.read_bit());
  EXPECT_EQ(r.read(64), 0x1234567890ABCDEFull);
  EXPECT_FALSE(r.eof());
}

TEST(BitstreamTest, ReaderReportsEof) {
  BitWriter w;
  w.write(0xFF, 8);
  const auto bytes = w.bytes();
  BitReader r(bytes);
  EXPECT_EQ(r.read(8), 0xFFu);
  r.read(1);
  EXPECT_TRUE(r.eof());
}

std::vector<TimedValue> regular_series(std::size_t n) {
  std::vector<TimedValue> pts;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({static_cast<core::TimePoint>(i) * core::kMinute,
                   200.0 + std::sin(static_cast<double>(i) * 0.1) * 5.0});
  }
  return pts;
}

TEST(ChunkTest, RoundTripRegularSeries) {
  const auto pts = regular_series(500);
  const auto chunk = Chunk::compress(pts);
  EXPECT_EQ(chunk.count(), 500u);
  EXPECT_EQ(chunk.min_time(), pts.front().time);
  EXPECT_EQ(chunk.max_time(), pts.back().time);
  EXPECT_EQ(chunk.decompress(), pts);
}

TEST(ChunkTest, CompressionBeatsRawOnTelemetry) {
  // Constant-interval timestamps + slowly varying values: the typical
  // monitoring series. Raw = 16 bytes/point.
  const auto pts = regular_series(1000);
  const auto chunk = Chunk::compress(pts);
  EXPECT_LT(chunk.byte_size(), pts.size() * 16 / 2)
      << "expected at least 2x compression on smooth telemetry";
}

TEST(ChunkTest, ConstantSeriesCompressesExtremely) {
  std::vector<TimedValue> pts;
  for (int i = 0; i < 1000; ++i) {
    pts.push_back({i * core::kSecond, 42.0});
  }
  const auto chunk = Chunk::compress(pts);
  // dod = 0 and xor = 0 after the header: ~2 bits/point.
  EXPECT_LT(chunk.byte_size(), 300u);
  EXPECT_EQ(chunk.decompress(), pts);
}

TEST(ChunkTest, SinglePointAndEmpty) {
  EXPECT_TRUE(Chunk::compress({}).empty());
  const std::vector<TimedValue> one{{123456, -7.25}};
  const auto chunk = Chunk::compress(one);
  EXPECT_EQ(chunk.decompress(), one);
}

TEST(ChunkTest, SerializeDeserializeRoundTrip) {
  const auto pts = regular_series(100);
  const auto chunk = Chunk::compress(pts);
  const auto blob = chunk.serialize();
  const auto back = Chunk::deserialize(blob);
  EXPECT_EQ(back.count(), chunk.count());
  EXPECT_EQ(back.min_time(), chunk.min_time());
  EXPECT_EQ(back.max_time(), chunk.max_time());
  EXPECT_EQ(back.decompress(), pts);
}

TEST(ChunkTest, DeserializeRejectsGarbage) {
  EXPECT_TRUE(Chunk::deserialize({1, 2, 3}).empty());
  EXPECT_TRUE(Chunk::deserialize({}).empty());
}

TEST(ChunkTest, OverlapPredicate) {
  const auto chunk = Chunk::compress(regular_series(10));  // [0, 9min]
  EXPECT_TRUE(chunk.overlaps({0, core::kMinute}));
  EXPECT_TRUE(chunk.overlaps({9 * core::kMinute, 10 * core::kMinute}));
  EXPECT_FALSE(chunk.overlaps({10 * core::kMinute, 20 * core::kMinute}));
  EXPECT_FALSE(chunk.overlaps({-5, 0}));
}

TEST(ChunkTest, OverlapsRejectsEmptyRange) {
  const auto chunk = Chunk::compress(regular_series(10));  // [0, 9min]
  // begin == end is the empty half-open range: it contains no instant, so it
  // overlaps nothing — even when that instant is inside the chunk.
  EXPECT_FALSE(chunk.overlaps({5 * core::kMinute, 5 * core::kMinute}));
  EXPECT_FALSE(chunk.overlaps({0, 0}));
  EXPECT_FALSE(chunk.overlaps({9 * core::kMinute, 9 * core::kMinute}));
  // Inverted ranges are empty too.
  EXPECT_FALSE(chunk.overlaps({8 * core::kMinute, 2 * core::kMinute}));
}

TEST(ChunkTest, OverlapsExactBoundaries) {
  const auto chunk = Chunk::compress(regular_series(10));  // [0, 9min]
  const core::TimePoint min = chunk.min_time();
  const core::TimePoint max = chunk.max_time();
  // A range whose half-open end lands exactly on min_time excludes it.
  EXPECT_FALSE(chunk.overlaps({min - core::kMinute, min}));
  EXPECT_TRUE(chunk.overlaps({min - core::kMinute, min + 1}));
  EXPECT_TRUE(chunk.overlaps({min, min + 1}));
  // A range beginning exactly at max_time includes it (inclusive begin).
  EXPECT_TRUE(chunk.overlaps({max, max + core::kMinute}));
  EXPECT_FALSE(chunk.overlaps({max + 1, max + core::kMinute}));
}

// -- Malformed-input sweep ----------------------------------------------------
// Contract: Chunk::deserialize returns the empty chunk for ANY input it
// cannot fully validate — truncated headers, framing mismatches, garbage
// bitstreams — never a partly-decoded or lying chunk.

std::vector<std::uint8_t> valid_blob() {
  return Chunk::compress(regular_series(50)).serialize();
}

TEST(ChunkTest, DeserializeRejectsTruncatedHeader) {
  const auto blob = valid_blob();
  for (std::size_t len = 0; len < 24; ++len) {
    const std::vector<std::uint8_t> cut(blob.begin(), blob.begin() + len);
    EXPECT_TRUE(Chunk::deserialize(cut).empty()) << "header length " << len;
  }
}

TEST(ChunkTest, DeserializeRejectsTruncatedPayload) {
  const auto blob = valid_blob();
  for (const std::size_t drop : {std::size_t{1}, std::size_t{7},
                                 blob.size() - 25}) {
    const std::vector<std::uint8_t> cut(blob.begin(), blob.end() - drop);
    EXPECT_TRUE(Chunk::deserialize(cut).empty()) << "dropped " << drop;
  }
}

TEST(ChunkTest, DeserializeRejectsCountMismatch) {
  for (const std::int32_t delta : {+1, -1, +1000}) {
    auto blob = valid_blob();
    std::uint32_t count = 0;
    std::memcpy(&count, blob.data(), 4);
    count = static_cast<std::uint32_t>(static_cast<std::int64_t>(count) + delta);
    std::memcpy(blob.data(), &count, 4);
    EXPECT_TRUE(Chunk::deserialize(blob).empty()) << "count delta " << delta;
  }
}

TEST(ChunkTest, DeserializeRejectsPayloadLenMismatch) {
  for (const std::int32_t delta : {+1, -1, +4096}) {
    auto blob = valid_blob();
    std::uint32_t len = 0;
    std::memcpy(&len, blob.data() + 20, 4);
    len = static_cast<std::uint32_t>(static_cast<std::int64_t>(len) + delta);
    std::memcpy(blob.data() + 20, &len, 4);
    EXPECT_TRUE(Chunk::deserialize(blob).empty()) << "len delta " << delta;
  }
}

TEST(ChunkTest, DeserializeRejectsCorruptedEndpoints) {
  {
    auto blob = valid_blob();  // shift min_time: first decoded point mismatch
    std::uint64_t min = 0;
    std::memcpy(&min, blob.data() + 4, 8);
    min += 1;
    std::memcpy(blob.data() + 4, &min, 8);
    EXPECT_TRUE(Chunk::deserialize(blob).empty());
  }
  {
    auto blob = valid_blob();  // shift max_time: last decoded point mismatch
    std::uint64_t max = 0;
    std::memcpy(&max, blob.data() + 12, 8);
    max += 1;
    std::memcpy(blob.data() + 12, &max, 8);
    EXPECT_TRUE(Chunk::deserialize(blob).empty());
  }
  {
    auto blob = valid_blob();  // min > max
    std::uint64_t min = 0, max = 0;
    std::memcpy(&min, blob.data() + 4, 8);
    std::memcpy(&max, blob.data() + 12, 8);
    std::memcpy(blob.data() + 4, &max, 8);
    std::memcpy(blob.data() + 12, &min, 8);
    EXPECT_TRUE(Chunk::deserialize(blob).empty());
  }
}

TEST(ChunkTest, DeserializeRejectsGarbageBitstream) {
  // Keep the valid header, replace the payload with noise: decode-validation
  // must reject it (wrong endpoints, non-monotonic times, or early EOF) and
  // never crash or emit partial data.
  core::Rng rng(0xBADBADull);
  for (int trial = 0; trial < 50; ++trial) {
    auto blob = valid_blob();
    for (std::size_t i = 24; i < blob.size(); ++i) {
      blob[i] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    EXPECT_TRUE(Chunk::deserialize(blob).empty()) << "trial " << trial;
  }
}

TEST(ChunkTest, DeserializeRejectsBitFlips) {
  // Single bit flips anywhere in the blob must never yield a chunk that
  // contradicts its own header. (Most flips are rejected outright; a flip in
  // a value's XOR residual can legitimately decode — values carry no
  // checksum — but times/count/framing must still agree.)
  const auto blob = valid_blob();
  core::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    auto copy = blob;
    const auto bit = rng.uniform_int(0, static_cast<std::int64_t>(copy.size()) * 8 - 1);
    copy[static_cast<std::size_t>(bit / 8)] ^=
        static_cast<std::uint8_t>(1u << (bit % 8));
    const auto chunk = Chunk::deserialize(copy);
    if (chunk.empty()) continue;
    const auto pts = chunk.decompress();
    ASSERT_EQ(pts.size(), chunk.count());
    EXPECT_EQ(pts.front().time, chunk.min_time());
    EXPECT_EQ(pts.back().time, chunk.max_time());
  }
}

// Property sweep: random series shapes must round-trip exactly.
struct ChunkPropertyCase {
  const char* name;
  core::Duration base_interval;
  double jitter_frac;     // interval jitter
  double value_scale;
  bool integer_values;
  bool include_specials;  // zeros / negatives / huge magnitudes
};

class ChunkPropertyTest : public ::testing::TestWithParam<ChunkPropertyCase> {};

TEST_P(ChunkPropertyTest, RandomSeriesRoundTrip) {
  const auto& param = GetParam();
  core::Rng rng(std::hash<std::string>{}(param.name));
  for (int trial = 0; trial < 20; ++trial) {
    const auto n = 1 + rng.uniform_int(0, 700);
    std::vector<TimedValue> pts;
    core::TimePoint t = rng.uniform_int(0, core::kDay);
    for (std::int64_t i = 0; i < n; ++i) {
      t += std::max<core::Duration>(
          1, static_cast<core::Duration>(
                 static_cast<double>(param.base_interval) *
                 (1.0 + rng.normal(0.0, param.jitter_frac))));
      double v = rng.normal(0.0, param.value_scale);
      if (param.integer_values) v = std::floor(v);
      if (param.include_specials) {
        const auto pick = rng.uniform_int(0, 9);
        if (pick == 0) v = 0.0;
        if (pick == 1) v = -v * 1e12;
        if (pick == 2) v = 1e-300;
      }
      pts.push_back({t, v});
    }
    const auto chunk = Chunk::compress(pts);
    EXPECT_EQ(chunk.decompress(), pts)
        << param.name << " trial " << trial << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ChunkPropertyTest,
    ::testing::Values(
        ChunkPropertyCase{"steady_1s", core::kSecond, 0.0, 100.0, false, false},
        ChunkPropertyCase{"steady_1m", core::kMinute, 0.0, 1e6, false, false},
        ChunkPropertyCase{"jittered", core::kSecond, 0.3, 50.0, false, false},
        ChunkPropertyCase{"integers", core::kSecond, 0.1, 1000.0, true, false},
        ChunkPropertyCase{"specials", 10 * core::kSecond, 0.5, 1.0, false, true},
        ChunkPropertyCase{"subsecond", core::kMillisecond, 0.2, 10.0, false,
                          false}),
    [](const ::testing::TestParamInfo<ChunkPropertyCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace hpcmon::store
