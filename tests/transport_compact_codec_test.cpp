// Property tests for the WAL's compact sample layout
// (transport::compact_samples / decode_compact_samples), diffed against the
// plain oracle in reference_sample_codec.hpp.
//
// Round trips are bit for bit (NaN payloads, -0.0, infinities, denormals,
// ids across the whole u32 range, times at both i64 extremes relative to
// the sweep). Every truncation and every single-bit flip of an encoded
// payload either decodes exactly the samples its header counts, consuming
// every byte, or fails typed, and the oracle agrees either way. A header
// count the bytes cannot hold fails before anything is sized by it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <vector>

#include "core/rng.hpp"
#include "reference_sample_codec.hpp"
#include "transport/codec.hpp"

namespace {

// Bytes requested from operator new while a probe is armed, so a test can
// check that a decode sizes nothing by an untrusted count.
std::atomic<bool> g_probe_armed{false};
std::atomic<std::size_t> g_probe_bytes{0};

}  // namespace

// The replacements pair malloc with free; GCC cannot see that and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  if (g_probe_armed.load(std::memory_order_relaxed)) {
    g_probe_bytes.fetch_add(n, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace hpcmon::transport {
namespace {

using core::Sample;
using core::SampleBatch;
using core::TimePoint;

constexpr TimePoint kMin = std::numeric_limits<TimePoint>::min();
constexpr TimePoint kMax = std::numeric_limits<TimePoint>::max();

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, 8);
  return b;
}
double from_bits(std::uint64_t b) {
  double v = 0;
  std::memcpy(&v, &b, 8);
  return v;
}

/// The production transcode of `batch`'s fixed-width frame.
std::vector<std::uint8_t> compact(const SampleBatch& batch) {
  const auto frame = encode_samples(batch);
  std::vector<std::uint8_t> out(
      compact_samples_bound(static_cast<std::uint32_t>(batch.size())));
  TimePoint newest = 0;
  out.resize(compact_samples(frame.payload.data(), out.data(), newest));
  TimePoint want = batch.sweep_time;
  for (const auto& s : batch.samples) want = std::max(want, s.time);
  EXPECT_EQ(newest, want);
  return out;
}

/// Same header and samples, values compared by their bits.
void expect_bitwise_equal(const SampleBatch& got, const SampleBatch& want) {
  EXPECT_EQ(got.sweep_time, want.sweep_time);
  EXPECT_EQ(got.origin, want.origin);
  ASSERT_EQ(got.samples.size(), want.samples.size());
  for (std::size_t i = 0; i < want.samples.size(); ++i) {
    EXPECT_EQ(got.samples[i].series, want.samples[i].series) << i;
    EXPECT_EQ(got.samples[i].time, want.samples[i].time) << i;
    EXPECT_EQ(bits_of(got.samples[i].value), bits_of(want.samples[i].value))
        << i;
  }
}

double edge_value(core::Rng& rng) {
  static const std::uint64_t kEdges[] = {
      0x0000000000000000ull,  // +0.0
      0x8000000000000000ull,  // -0.0
      0x7FF0000000000000ull,  // +inf
      0xFFF0000000000000ull,  // -inf
      0x7FF8000000000000ull,  // quiet NaN
      0x7FF0000000000001ull,  // signalling NaN, lowest payload
      0xFFFFFFFFFFFFFFFFull,  // NaN, every payload bit
      0x7FF4DEADBEEF0001ull,  // NaN with a payload
      0x0000000000000001ull,  // smallest denormal
      0x000FFFFFFFFFFFFFull,  // largest denormal
      0x800FFFFFFFFFFFFFull,  // negative denormal
      0x7FEFFFFFFFFFFFFFull,  // largest finite
  };
  return from_bits(kEdges[rng.uniform_int(0, std::size(kEdges) - 1)]);
}

/// A batch mixing the sweeps the stack writes (contiguous ids at the sweep
/// time, repeated values) with every edge the layout must carry.
SampleBatch random_batch(core::Rng& rng, std::size_t n) {
  static const TimePoint kSweeps[] = {0, 1, -1, kMin, kMax, 60'000'000};
  SampleBatch b;
  b.sweep_time = rng.uniform(0, 1) < 0.5
                     ? kSweeps[rng.uniform_int(0, std::size(kSweeps) - 1)]
                     : rng.uniform_int(kMin, kMax);
  b.origin = core::ComponentId{static_cast<std::uint32_t>(rng.engine()())};
  std::uint32_t id = static_cast<std::uint32_t>(rng.uniform_int(0, 3));
  double value = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    Sample s;
    switch (rng.uniform_int(0, 5)) {
      case 0:  // a jump anywhere in u32, the extremes included
        id = rng.uniform(0, 1) < 0.3
                 ? (rng.uniform(0, 1) < 0.5 ? 0u : 0xFFFFFFFFu)
                 : static_cast<std::uint32_t>(rng.engine()());
        break;
      case 1:  // a repeat or a step back
        id -= static_cast<std::uint32_t>(rng.uniform_int(0, 2));
        break;
      default:  // the next series
        ++id;
    }
    s.series = core::SeriesId{id};
    switch (rng.uniform_int(0, 4)) {
      case 0:
        s.time = rng.uniform(0, 1) < 0.5 ? kMin : kMax;
        break;
      case 1:
        s.time = rng.uniform_int(kMin, kMax);
        break;
      default:
        s.time = b.sweep_time;
    }
    switch (rng.uniform_int(0, 4)) {
      case 0:
        value = edge_value(rng);
        break;
      case 1:
        value = from_bits(rng.engine()());
        break;
      case 2:
        break;  // the previous value again
      default:
        value = 40.0 + rng.uniform(0.0, 20.0);
    }
    s.value = value;
    b.samples.push_back(s);
  }
  return b;
}

/// The production decode of `bytes`, checked against the oracle: both
/// reject it, or both return the same batch with exactly the samples its
/// header counts.
void expect_decoders_agree(const std::vector<std::uint8_t>& bytes) {
  const auto got = decode_compact_samples(bytes);
  const auto want = refsample::decode(bytes);
  ASSERT_EQ(got.is_ok(), want.has_value());
  if (!got.is_ok()) {
    EXPECT_FALSE(got.message().empty());
    return;
  }
  std::uint32_t count = 0;
  std::memcpy(&count, bytes.data() + kSampleCountOffset, 4);
  EXPECT_EQ(got.value().size(), count);
  expect_bitwise_equal(got.value(), *want);
}

TEST(CompactCodecTest, RandomBatchesRoundTripBitForBit) {
  core::Rng rng(31337);
  for (int round = 0; round < 400; ++round) {
    const auto n = static_cast<std::size_t>(
        round < 8 ? round % 2 : rng.uniform_int(0, 300));  // 0 and 1 first
    const auto batch = random_batch(rng, n);
    const auto bytes = compact(batch);
    ASSERT_EQ(bytes, refsample::encode(batch)) << "round " << round;
    const auto decoded = decode_compact_samples(bytes);
    ASSERT_TRUE(decoded.is_ok()) << decoded.message();
    expect_bitwise_equal(decoded.value(), batch);
    const auto oracle = refsample::decode(bytes);
    ASSERT_TRUE(oracle.has_value());
    expect_bitwise_equal(*oracle, batch);
  }
}

TEST(CompactCodecTest, EdgeBatchesRoundTrip) {
  // The widest samples: an id step of +-(2^32 - 1), a time 2^63 away from
  // the sweep and eight value bytes take 1 + 5 + 10 + 8 bytes each.
  SampleBatch wide;
  wide.sweep_time = 0;
  wide.samples = {{core::SeriesId{0xFFFFFFFFu}, kMin, from_bits(~0ull)},
                  {core::SeriesId{0}, kMax, from_bits(1)}};
  SampleBatch empty;
  empty.sweep_time = kMax;
  SampleBatch one;
  one.samples = {{core::SeriesId{1}, 0, -0.0}};  // dense, one value byte
  for (const auto& batch : {wide, empty, one}) {
    const auto bytes = compact(batch);
    EXPECT_EQ(bytes, refsample::encode(batch));
    EXPECT_LE(bytes.size(),
              kSampleHeaderBytes + kCompactSampleMaxBytes * batch.size());
    const auto decoded = decode_compact_samples(bytes);
    ASSERT_TRUE(decoded.is_ok()) << decoded.message();
    expect_bitwise_equal(decoded.value(), batch);
  }
  EXPECT_EQ(compact(wide).size(),
            kSampleHeaderBytes + 2 * kCompactSampleMaxBytes);
  EXPECT_EQ(compact(empty).size(), kSampleHeaderBytes);
  EXPECT_EQ(compact(one).size(), kSampleHeaderBytes + 2);
}

TEST(CompactCodecTest, EveryTruncationAndBitFlipDecodesExactlyOrFailsTyped) {
  core::Rng rng(4242);
  for (int round = 0; round < 12; ++round) {
    const auto batch =
        random_batch(rng, static_cast<std::size_t>(rng.uniform_int(0, 24)));
    const auto bytes = compact(batch);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      const std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + len);
      EXPECT_FALSE(decode_compact_samples(cut).is_ok()) << len;
      EXPECT_FALSE(refsample::decode(cut).has_value()) << len;
    }
    for (std::size_t bit = 0; bit < 8 * bytes.size(); ++bit) {
      auto flipped = bytes;
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      SCOPED_TRACE(testing::Message() << "round " << round << " bit " << bit);
      expect_decoders_agree(flipped);
    }
  }
}

TEST(CompactCodecTest, CountTheBytesCannotHoldFailsBeforeSizingAnything) {
  {
    // The probe sees a reservation sized by a count.
    g_probe_bytes = 0;
    g_probe_armed = true;
    std::vector<Sample> sized;
    sized.reserve(1000);
    g_probe_armed = false;
    ASSERT_GE(g_probe_bytes.load(), 1000 * sizeof(Sample));
  }
  SampleBatch batch;
  batch.samples = {{core::SeriesId{1}, 0, 1.0}, {core::SeriesId{2}, 0, 1.0}};
  for (const std::uint32_t count :
       {3u, 1000u, 0x7FFFFFFFu, std::numeric_limits<std::uint32_t>::max()}) {
    auto bytes = compact(batch);
    std::memcpy(bytes.data() + kSampleCountOffset, &count, 4);
    g_probe_bytes = 0;
    g_probe_armed = true;
    const auto decoded = decode_compact_samples(bytes);
    g_probe_armed = false;
    EXPECT_FALSE(decoded.is_ok()) << count;
    // Its error message is all it may allocate.
    EXPECT_LT(g_probe_bytes.load(), 256u) << count;
    EXPECT_FALSE(refsample::decode(bytes).has_value());
  }
}

TEST(CompactCodecTest, MalformedFieldsFailTyped) {
  const auto header = [](std::uint32_t count) {
    std::vector<std::uint8_t> b(kSampleHeaderBytes, 0);
    std::memcpy(b.data() + kSampleCountOffset, &count, 4);
    return b;
  };
  const auto with = [&](std::uint32_t count,
                        std::vector<std::uint8_t> body) {
    auto b = header(count);
    b.insert(b.end(), body.begin(), body.end());
    return b;
  };
  const std::vector<std::vector<std::uint8_t>> bad = {
      {},                                       // no header
      std::vector<std::uint8_t>(15, 0),         // short header
      with(0, {0x00}),                          // trailing byte
      with(1, {0x01, 0x00, 0x00}),              // t without n
      with(1, {0x48, 0x00, 0x00}),              // n = 9
      with(1, {0x3A, 0x00, 0x00, 1, 2, 3, 4, 5, 6, 7}),  // n + t = 9
      with(1, {0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
               0x80, 0x00}),                    // 11-byte varint
      with(1, {0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
               0x02, 0x00}),                    // varint past 64 bits
      with(1, {0x00, 0x80, 0x80, 0x80, 0x80, 0x20, 0x00}),  // id 2^32
      with(1, {0x00, 0x01, 0x00}),              // id -1
      with(2, {0x00, 0xFE, 0xFF, 0xFF, 0xFF, 0x1F, 0x00,
               0x80}),                          // id 0xFFFFFFFF + 1
  };
  for (std::size_t i = 0; i < bad.size(); ++i) {
    const auto decoded = decode_compact_samples(bad[i]);
    EXPECT_FALSE(decoded.is_ok()) << i;
    EXPECT_FALSE(refsample::decode(bad[i]).has_value()) << i;
  }
  // The same fields, well formed, decode: a non-canonical varint is read
  // by value.
  const auto ok = with(1, {0x00, 0x80, 0x00, 0x00});
  const auto decoded = decode_compact_samples(ok);
  ASSERT_TRUE(decoded.is_ok()) << decoded.message();
  ASSERT_EQ(decoded.value().size(), 1u);
  EXPECT_EQ(core::raw(decoded.value().samples[0].series), 0u);
  expect_decoders_agree(ok);
}

}  // namespace
}  // namespace hpcmon::transport
