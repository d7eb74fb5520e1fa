// Property tests pinning the word-at-a-time codec to the original
// bit-at-a-time implementation (tests/reference_codec.hpp, kept verbatim as
// the oracle):
//   * encode: Chunk::compress payload bytes are identical on seeded random
//     workloads covering every delta-of-delta class and XOR window shape;
//   * decode: decode_all / ChunkCursor reproduce the original decode, and
//     next() vs scan_batch() are interchangeable at any block size;
//   * raw bitstream: BitWriter/BitReader match the reference bit-for-bit on
//     random write/read schedules, including resumed writes after bytes();
//   * append-many: the span append_batch produces sealed chunks
//     byte-identical to N individual append() calls;
//   * open head: every chunk the store seals from its encode-on-arrival
//     head equals Chunk::compress (and the reference encoding) of the
//     accepted points, and after every append each read over the open head
//     equals the same read over a plain vector of those points;
//   * adversarial: bit-flip and truncated frames keep failing typed (empty
//     chunk or a fully valid one — never a crash, hang, or bad invariant).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <span>
#include <vector>

#include "core/sample.hpp"
#include "ingest/sharded_store.hpp"
#include "reference_codec.hpp"
#include "store/bitstream.hpp"
#include "store/chunk.hpp"
#include "store/cursor.hpp"
#include "store/tsdb.hpp"

namespace hpcmon {
namespace {

using core::Sample;
using core::SeriesId;
using core::TimedValue;
using core::TimeRange;
using store::Agg;
using store::BitReader;
using store::BitWriter;
using store::Chunk;
using store::ChunkCursor;
using store::ChunkSummary;

// Seeded workload shapes chosen to hit every codec path: all four dod
// prefix classes, XOR-zero runs, window reuse, window widening, exponent
// churn (leading-zero collapse), and sign flips.
std::vector<TimedValue> make_points(std::uint64_t seed, int shape,
                                    std::size_t n) {
  std::mt19937_64 rng(seed * 1000003ull + static_cast<std::uint64_t>(shape));
  std::vector<TimedValue> pts;
  pts.reserve(n);
  std::int64_t t = 1'700'000'000'000'000 +
                   static_cast<std::int64_t>(rng() % 1'000'000);
  double v = 40.0 + static_cast<double>(rng() % 100);
  for (std::size_t i = 0; i < n; ++i) {
    switch (shape) {
      case 0:  // constant value, perfectly regular cadence (dod == 0)
        t += 1'000'000;
        break;
      case 1:  // random walk, regular cadence
        t += 1'000'000;
        v += (static_cast<double>(rng() % 2001) - 1000.0) / 97.0;
        break;
      case 2:  // jittered cadence (small dods), slow drift
        t += 1'000'000 + static_cast<std::int64_t>(rng() % 4096) - 2048;
        v += 0.125;
        break;
      case 3:  // exponent churn: values jump across magnitudes and sign
        t += 1'000'000;
        v = (rng() % 2 ? 1.0 : -1.0) *
            std::ldexp(static_cast<double>(rng() % 4096 + 1),
                       static_cast<int>(rng() % 200) - 100);
        break;
      case 4: {  // wild time gaps: exercises the 24/36/64-bit dod classes
        const int klass = static_cast<int>(rng() % 4);
        const std::int64_t gap =
            klass == 0   ? 1'000'000
            : klass == 1 ? static_cast<std::int64_t>(rng() % (1u << 22))
            : klass == 2 ? static_cast<std::int64_t>(rng() % (1ull << 34))
                         : static_cast<std::int64_t>(rng() % (1ull << 44));
        t += gap + 1;
        v += 1.0;
        break;
      }
      default:  // plateaus: runs of identical values (XOR-zero control bits)
        t += 1'000'000;
        if (rng() % 4 == 0) v += static_cast<double>(rng() % 7);
        break;
    }
    pts.push_back({t, v});
  }
  return pts;
}

constexpr int kShapes = 6;

TEST(CodecProperty, EncodePayloadMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (int shape = 0; shape < kShapes; ++shape) {
      const auto pts = make_points(seed, shape, 400);
      const auto chunk = Chunk::compress(pts);
      const auto ref = refcodec::ref_encode_payload(pts);
      ASSERT_EQ(chunk.payload(), ref)
          << "seed=" << seed << " shape=" << shape;
    }
  }
}

TEST(CodecProperty, DecodeMatchesReferenceAndInput) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (int shape = 0; shape < kShapes; ++shape) {
      const auto pts = make_points(seed, shape, 400);
      const auto chunk = Chunk::compress(pts);
      std::vector<TimedValue> decoded;
      ASSERT_EQ(store::decode_all(chunk, decoded), pts.size());
      ASSERT_EQ(decoded, pts) << "seed=" << seed << " shape=" << shape;
      const auto ref = refcodec::ref_decode_payload(chunk.payload(),
                                                    chunk.count());
      ASSERT_EQ(decoded, ref);
    }
  }
}

TEST(CodecProperty, CursorNextMatchesScanBatchAtAnyBlockSize) {
  const auto pts = make_points(7, 1, 500);
  const auto chunk = Chunk::compress(pts);
  for (const std::size_t block : {std::size_t{1}, std::size_t{3},
                                  std::size_t{7}, std::size_t{64},
                                  std::size_t{499}, std::size_t{1000}}) {
    ChunkCursor cursor(chunk);
    std::vector<TimedValue> got;
    std::vector<TimedValue> buf(block);
    for (;;) {
      const auto n = cursor.scan_batch(buf);
      if (n == 0) break;
      got.insert(got.end(), buf.begin(), buf.begin() + n);
    }
    ASSERT_EQ(got, pts) << "block=" << block;
  }
  // Alternating next() and scan_batch() on one cursor stays coherent.
  ChunkCursor cursor(chunk);
  std::vector<TimedValue> got;
  std::vector<TimedValue> buf(5);
  TimedValue one;
  while (true) {
    if (got.size() % 3 == 0) {
      if (!cursor.next(one)) break;
      got.push_back(one);
    } else {
      const auto n = cursor.scan_batch(buf);
      if (n == 0) break;
      got.insert(got.end(), buf.begin(), buf.begin() + n);
    }
  }
  ASSERT_EQ(got, pts);
}

TEST(CodecProperty, BitstreamWriterMatchesReferenceOnRandomSchedules) {
  std::mt19937_64 rng(42);
  for (int round = 0; round < 50; ++round) {
    BitWriter w;
    refcodec::RefBitWriter ref;
    const int fields = 1 + static_cast<int>(rng() % 200);
    for (int i = 0; i < fields; ++i) {
      const int bits = 1 + static_cast<int>(rng() % 64);
      const std::uint64_t value = rng();
      w.write(value, bits);
      ref.write(value, bits);
      if (rng() % 8 == 0) {
        // Resumed writes after observing bytes() must not perturb the stream.
        ASSERT_EQ(w.bytes(), ref.bytes());
      }
    }
    ASSERT_EQ(w.bit_count(), ref.bit_count());
    ASSERT_EQ(w.bytes(), ref.bytes());
  }
}

TEST(CodecProperty, BitstreamReaderMatchesReferenceOnRandomSchedules) {
  std::mt19937_64 rng(43);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::uint8_t> data(rng() % 64);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());
    BitReader r(data);
    refcodec::RefBitReader ref(data);
    // Read past the end on purpose: underrun semantics must match too.
    for (int i = 0; i < 100; ++i) {
      const int bits = 1 + static_cast<int>(rng() % 64);
      ASSERT_EQ(r.read(bits), ref.read(bits))
          << "round=" << round << " i=" << i << " bits=" << bits;
      ASSERT_EQ(r.eof(), ref.eof());
    }
  }
}

// Sealed state fingerprint: serialize() bytes of every sealed chunk (the
// framing covers count/min/max/payload) in (series, position) order.
std::vector<std::vector<std::uint8_t>> sealed_bytes(
    const store::TimeSeriesStore& s) {
  std::vector<std::vector<std::uint8_t>> out;
  const auto set = s.sealed_chunks_before(INT64_MAX);
  for (const auto& [id, chunk] : set.chunks) out.push_back(chunk->serialize());
  return out;
}

TEST(CodecProperty, AppendBatchSpanByteIdenticalToPerSampleAppends) {
  // Interleave many series (spread across stripes and shards) in one batch.
  std::vector<Sample> batch;
  for (std::uint32_t sweep = 0; sweep < 40; ++sweep) {
    for (std::uint32_t s = 0; s < 37; ++s) {
      const std::int64_t t = 1'000'000 + sweep * 1'000'000 + (s % 3);
      batch.push_back({SeriesId{s}, t, static_cast<double>(sweep * s)});
    }
  }
  // A few out-of-order duplicates.
  batch.push_back({SeriesId{5}, 1'000'000, 1.0});
  batch.push_back({SeriesId{6}, 0, 2.0});

  store::TimeSeriesStore one(64, 0);
  std::size_t accepted_one = 0;
  for (const auto& s : batch) {
    if (one.append(s.series, s.time, s.value)) ++accepted_one;
  }
  store::TimeSeriesStore many(64, 0);
  EXPECT_EQ(many.append_batch(batch), accepted_one);
  EXPECT_EQ(sealed_bytes(one), sealed_bytes(many));

  ingest::ShardedTimeSeriesStore sharded(4, 64);
  EXPECT_EQ(sharded.append_batch(batch), accepted_one);
  const core::TimeRange all{INT64_MIN + 1, INT64_MAX};
  for (std::uint32_t s = 0; s < 37; ++s) {
    ASSERT_EQ(sharded.query_range(SeriesId{s}, all),
              one.query_range(SeriesId{s}, all))
        << "series=" << s;
  }
}

// -- Open head: encode on arrival -----------------------------------------

// `make_points` with rejects mixed in: every 37th point repeats the previous
// timestamp and every 53rd steps back before it.
std::vector<TimedValue> with_rejects(std::uint64_t seed, int shape,
                                     std::size_t n) {
  auto pts = make_points(seed, shape, n);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    if (i % 37 == 36) pts[i].time = pts[i - 1].time;
    if (i % 53 == 52) pts[i].time = pts[i - 1].time - 1000;
  }
  return pts;
}

std::vector<TimedValue> in_range(const std::vector<TimedValue>& pts,
                                 const TimeRange& range) {
  std::vector<TimedValue> out;
  for (const auto& p : pts) {
    if (range.contains(p.time)) out.push_back(p);
  }
  return out;
}

ChunkSummary summarize(const std::vector<TimedValue>& pts) {
  ChunkSummary acc;
  for (const auto& p : pts) acc.add(p);
  return acc;
}

// Buckets on the grid from range.begin, filled in time order.
std::vector<TimedValue> downsample_of(const std::vector<TimedValue>& pts,
                                      const TimeRange& range,
                                      core::Duration bucket, Agg agg) {
  std::vector<std::pair<core::TimePoint, ChunkSummary>> buckets;
  for (const auto& p : in_range(pts, range)) {
    const auto start = range.begin + (p.time - range.begin) / bucket * bucket;
    if (buckets.empty() || buckets.back().first != start) {
      buckets.emplace_back(start, ChunkSummary{});
    }
    buckets.back().second.add(p);
  }
  std::vector<TimedValue> out;
  for (const auto& [start, acc] : buckets) {
    out.push_back({start, *store::summary_aggregate(acc, agg)});
  }
  return out;
}

constexpr Agg kAggs[] = {Agg::kSum,   Agg::kMean,  Agg::kMin,
                         Agg::kMax,   Agg::kCount, Agg::kLast};

// Every read over `range` against the same read over `expected` (the
// accepted points). Exact: with the range inside the open head, the store
// adds the same doubles in the same order as the vector does.
void expect_reads(const store::TimeSeriesStore& store, SeriesId id,
                  const std::vector<TimedValue>& expected,
                  const TimeRange& range) {
  const auto want = in_range(expected, range);
  ASSERT_EQ(store.query_range(id, range), want);
  std::vector<TimedValue> seen;
  store.scan(id, range, [&](const TimedValue& p) {
    seen.push_back(p);
    return true;
  });
  ASSERT_EQ(seen, want);
  seen.clear();
  const auto visited = store.scan(id, range, [&](const TimedValue& p) {
    seen.push_back(p);
    return seen.size() < 3;
  });
  ASSERT_EQ(visited, std::min<std::size_t>(3, want.size()));
  ASSERT_TRUE(std::equal(seen.begin(), seen.end(), want.begin()));
  const auto acc = summarize(want);
  for (const auto agg : kAggs) {
    ASSERT_EQ(store.aggregate(id, range, agg),
              store::summary_aggregate(acc, agg))
        << "agg=" << store::to_string(agg);
  }
  for (const core::Duration bucket : {7 * core::kSecond, core::kDay}) {
    for (const auto agg : {Agg::kMean, Agg::kMax, Agg::kLast}) {
      ASSERT_EQ(store.downsample(id, range, bucket, agg),
                downsample_of(want, range, bucket, agg))
          << "bucket=" << bucket << " agg=" << store::to_string(agg);
    }
  }
}

TEST(CodecProperty, OpenHeadSealsByteIdenticalToCompress) {
  const SeriesId id{5};
  for (const std::size_t chunk_points : {1u, 2u, 16u, 512u}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      for (int shape = 0; shape < kShapes; ++shape) {
        store::TimeSeriesStore store(chunk_points, 0);
        std::vector<TimedValue> accepted;
        for (const auto& p : with_rejects(seed, shape, 1200)) {
          const bool fresh = accepted.empty() || p.time > accepted.back().time;
          ASSERT_EQ(store.append(id, p.time, p.value), fresh);
          if (fresh) accepted.push_back(p);
        }
        const auto sealed = store.sealed_chunks_before(INT64_MAX).chunks;
        ASSERT_EQ(sealed.size(), accepted.size() / chunk_points);
        for (std::size_t k = 0; k < sealed.size(); ++k) {
          const std::vector<TimedValue> group(
              accepted.begin() + k * chunk_points,
              accepted.begin() + (k + 1) * chunk_points);
          const auto want = Chunk::compress(group);
          const auto& got = *sealed[k].second;
          ASSERT_EQ(got.payload(), want.payload())
              << "cp=" << chunk_points << " seed=" << seed
              << " shape=" << shape << " chunk=" << k;
          ASSERT_EQ(got.payload(), refcodec::ref_encode_payload(group));
          ASSERT_EQ(got.summary(), want.summary());
          ASSERT_EQ(got.count(), want.count());
          ASSERT_EQ(got.min_time(), want.min_time());
          ASSERT_EQ(got.max_time(), want.max_time());
          ASSERT_NE(got.id(), 0u);
        }
        // The open head holds exactly what a seal would store.
        const std::vector<TimedValue> head(
            accepted.begin() + sealed.size() * chunk_points, accepted.end());
        const auto st = store.stats();
        ASSERT_EQ(st.head_points, head.size());
        ASSERT_EQ(st.head_bytes, Chunk::compress(head).byte_size());
      }
    }
  }
}

TEST(CodecProperty, OpenHeadReadsMatchPlainVectorAfterEveryAppend) {
  const SeriesId id{9};
  for (const std::size_t chunk_points : {1u, 2u, 16u, 512u}) {
    for (int shape = 0; shape < kShapes; ++shape) {
      // With the decode cache on: the head must never be served from it.
      store::TimeSeriesStore store(chunk_points, 64);
      std::vector<TimedValue> accepted;
      for (const auto& p : with_rejects(17, shape, 600)) {
        const bool fresh = accepted.empty() || p.time > accepted.back().time;
        ASSERT_EQ(store.append(id, p.time, p.value), fresh);
        if (!fresh) continue;
        accepted.push_back(p);
        ASSERT_EQ(store.latest(id), accepted.back());
        const std::size_t open = accepted.size() % chunk_points;
        if (open == 0) {
          // Just sealed: nothing is open past the last point.
          expect_reads(store, id, accepted,
                       {accepted.back().time + 1, INT64_MAX});
          continue;
        }
        const auto first = accepted[accepted.size() - open].time;
        const auto last = accepted.back().time;
        expect_reads(store, id, accepted, {first, INT64_MAX});  // whole head
        expect_reads(store, id, accepted, {first + 1, last});   // inside it
        // Over sealed chunks and the head: the merge-free answers.
        const TimeRange all{INT64_MIN + 1, INT64_MAX};
        ASSERT_EQ(store.query_range(id, all), accepted);
        ASSERT_EQ(store.aggregate(id, all, Agg::kCount),
                  static_cast<double>(accepted.size()));
        ASSERT_EQ(store.aggregate(id, all, Agg::kLast), accepted.back().value);
      }
    }
  }
}

// Times at opposite ends of the clock: the delta and delta-of-delta
// overflow int64, so the encoder wraps them as the cursor does, and the
// points come back exactly (from the open head, the sealed chunk and a
// serialize round trip).
TEST(CodecProperty, TimesAnyDistanceApartRoundTrip) {
  const std::vector<TimedValue> pts = {
      {INT64_MIN + 1, 1.0}, {INT64_MAX - 2, 2.0}, {INT64_MAX - 1, 3.0}};
  const SeriesId id{2};
  const TimeRange all{INT64_MIN, INT64_MAX};
  store::TimeSeriesStore store(pts.size(), 0);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    ASSERT_TRUE(store.append(id, pts[i].time, pts[i].value));
    const std::vector<TimedValue> want(pts.begin(), pts.begin() + i + 1);
    ASSERT_EQ(store.query_range(id, all), want);
  }
  // (The reference encoder's signed arithmetic would overflow here.)
  const auto sealed = store.sealed_chunks_before(INT64_MAX).chunks;
  ASSERT_EQ(sealed.size(), 1u);
  const auto chunk = Chunk::compress(pts);
  ASSERT_EQ(sealed[0].second->payload(), chunk.payload());
  ASSERT_EQ(chunk.decompress(), pts);
  ASSERT_EQ(Chunk::deserialize(chunk.serialize()).decompress(), pts);
}

// A deserialized chunk must be all-or-nothing: either the empty chunk
// (typed rejection) or one whose decode satisfies every framing invariant.
void expect_typed(const Chunk& c) {
  if (c.empty()) return;
  const auto pts = c.decompress();
  ASSERT_EQ(pts.size(), c.count());
  ASSERT_EQ(pts.front().time, c.min_time());
  ASSERT_EQ(pts.back().time, c.max_time());
  for (std::size_t i = 1; i < pts.size(); ++i) {
    ASSERT_LT(pts[i - 1].time, pts[i].time);
  }
  // And the new reader agrees with the reference on the (possibly corrupt
  // but accepted) payload.
  ASSERT_EQ(pts, refcodec::ref_decode_payload(c.payload(), c.count()));
}

TEST(CodecProperty, BitFlipSweepFailsTyped) {
  const auto pts = make_points(3, 1, 64);
  const auto raw = Chunk::compress(pts).serialize();
  for (std::size_t bit = 0; bit < raw.size() * 8; ++bit) {
    auto flipped = raw;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    expect_typed(Chunk::deserialize(flipped));
  }
}

TEST(CodecProperty, TruncatedPayloadFailsTyped) {
  const auto pts = make_points(5, 2, 64);
  const auto raw = Chunk::compress(pts).serialize();
  constexpr std::size_t kHeader = 24;
  const std::size_t payload_len = raw.size() - kHeader;
  for (std::size_t keep = 0; keep < payload_len; ++keep) {
    // Re-frame so payload_len matches the truncated buffer: the decoder
    // itself (not the framing check) must catch the truncation.
    std::vector<std::uint8_t> cut(raw.begin(),
                                  raw.begin() + kHeader + keep);
    const auto len32 = static_cast<std::uint32_t>(keep);
    std::memcpy(cut.data() + 20, &len32, 4);
    const auto c = Chunk::deserialize(cut);
    // Fewer payload bytes can never still decode all 64 distinct points.
    EXPECT_TRUE(c.empty()) << "keep=" << keep;
  }
}

}  // namespace
}  // namespace hpcmon
