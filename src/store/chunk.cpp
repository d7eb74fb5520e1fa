#include "store/chunk.hpp"

#include <atomic>
#include <bit>
#include <cstring>

#include "store/codec_detail.hpp"
#include "store/cursor.hpp"

namespace hpcmon::store {

using core::TimedValue;
using core::TimePoint;

namespace {

// Generation ids for decode-cache keying; 0 is reserved for the empty chunk.
std::uint64_t next_chunk_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

Chunk Chunk::compress(const std::vector<TimedValue>& points) {
  ChunkWriter w;
  // Worst case per point: 68-bit delta-of-delta + 77-bit value = 19 bytes;
  // header point is 16. Reserving up front (plus word-granular spill slack)
  // means the encode loop never reallocates; seal() then copies out the
  // exact size.
  w.reserve(24 + 19 * points.size());
  for (const auto& p : points) w.append(p.time, p.value);
  return w.seal();
}

void ChunkWriter::append(TimePoint t, double value) {
  const std::uint64_t bits = detail::double_bits(value);
  if (summary_.count == 0) {
    // Header point: full timestamp + full value bits.
    bits_.write(detail::zigzag(t), 64);
    bits_.write(bits, 64);
    first_time_ = t;
    prev_delta_ = 0;
    prev_leading_ = -1;
    prev_trailing_ = 0;
  } else {
    // Modular arithmetic, like the cursor's decode: times any distance
    // apart wrap and round-trip instead of overflowing.
    const auto delta = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(t) - static_cast<std::uint64_t>(last_time_));
    detail::write_dod(bits_, static_cast<std::int64_t>(
                                 static_cast<std::uint64_t>(delta) -
                                 static_cast<std::uint64_t>(prev_delta_)));
    prev_delta_ = delta;
    const std::uint64_t x = bits ^ detail::double_bits(summary_.last);
    if (x == 0) {
      bits_.write(0, 1);  // '0': same value
    } else {
      int leading = std::countl_zero(x);
      const int trailing = std::countr_zero(x);
      if (leading > 31) leading = 31;  // 5-bit leading field
      if (prev_leading_ >= 0 && leading >= prev_leading_ &&
          trailing >= prev_trailing_) {
        // '10': reuse previous window.
        bits_.write(0b10, 2);
        const int meaningful = 64 - prev_leading_ - prev_trailing_;
        bits_.write(x >> prev_trailing_, meaningful);
      } else {
        // '11': new window — control, 5-bit leading, and 6-bit
        // meaningful-1 fused into one 13-bit write (bit-identical to the
        // separate writes).
        const int meaningful = 64 - leading - trailing;
        bits_.write((std::uint64_t{0b11} << 11) |
                        (static_cast<std::uint64_t>(leading) << 6) |
                        static_cast<std::uint64_t>(meaningful - 1),
                    13);
        bits_.write(x >> trailing, meaningful);
        prev_leading_ = static_cast<std::int8_t>(leading);
        prev_trailing_ = static_cast<std::int8_t>(trailing);
      }
    }
  }
  last_time_ = t;
  summary_.add(value);
}

Chunk ChunkWriter::copy() const {
  Chunk c;
  if (empty()) return c;
  c.bytes_ = bits_.bytes();
  c.min_time_ = first_time_;
  c.max_time_ = last_time_;
  c.count_ = count();
  c.summary_ = summary_;
  return c;
}

Chunk ChunkWriter::seal() {
  Chunk c = copy();
  if (c.empty()) return c;
  c.id_ = next_chunk_id();
  bits_.clear();
  summary_ = {};
  return c;
}

std::vector<TimedValue> Chunk::decompress() const {
  std::vector<TimedValue> out;
  decode_all(*this, out);
  return out;
}

namespace {
// Serialized layout: count(u32) min(u64) max(u64) payload_len(u32) payload.
constexpr std::size_t kHeaderBytes = 24;
}  // namespace

std::vector<std::uint8_t> Chunk::serialize() const {
  std::vector<std::uint8_t> out(kHeaderBytes + bytes_.size());
  auto put32 = [&](std::size_t off, std::uint32_t v) {
    std::memcpy(out.data() + off, &v, 4);
  };
  auto put64 = [&](std::size_t off, std::uint64_t v) {
    std::memcpy(out.data() + off, &v, 8);
  };
  put32(0, count_);
  put64(4, static_cast<std::uint64_t>(min_time_));
  put64(12, static_cast<std::uint64_t>(max_time_));
  put32(20, static_cast<std::uint32_t>(bytes_.size()));
  std::memcpy(out.data() + kHeaderBytes, bytes_.data(), bytes_.size());
  return out;
}

Chunk Chunk::deserialize(const std::vector<std::uint8_t>& raw) {
  if (raw.size() < kHeaderBytes) return {};  // truncated header
  std::uint32_t count = 0;
  std::uint32_t payload_len = 0;
  std::uint64_t t = 0;
  std::memcpy(&count, raw.data(), 4);
  std::memcpy(&payload_len, raw.data() + 20, 4);
  if (payload_len != raw.size() - kHeaderBytes) return {};  // framing mismatch
  if (count == 0) return {};  // an empty chunk round-trips to the empty chunk
  if (payload_len < 16) return {};  // header point alone needs 16 bytes

  Chunk c;
  c.count_ = count;
  std::memcpy(&t, raw.data() + 4, 8);
  c.min_time_ = static_cast<TimePoint>(t);
  std::memcpy(&t, raw.data() + 12, 8);
  c.max_time_ = static_cast<TimePoint>(t);
  if (c.min_time_ > c.max_time_) return {};
  c.bytes_.assign(raw.begin() + kHeaderBytes, raw.end());

  // Decode-validate the bitstream against the header before trusting it:
  // exactly `count` points, strictly increasing times, endpoints matching
  // min/max. Recomputes the summary on the way (it is not serialized).
  // Batch-decode through a fixed stack block rather than decode_all: `count`
  // is attacker-controlled here, and sizing a buffer from it before the
  // stream proves itself would let a 24-byte frame demand a gigabyte.
  ChunkCursor cursor(c);
  TimedValue block[512];
  TimePoint prev = INT64_MIN;
  std::uint32_t decoded = 0;
  for (;;) {
    const std::size_t n = cursor.scan_batch(block);
    if (n == 0) break;
    for (std::size_t i = 0; i < n; ++i) {
      if (block[i].time <= prev) return {};
      prev = block[i].time;
      if (decoded == 0 && block[i].time != c.min_time_) return {};
      c.summary_.add(block[i].value);
      ++decoded;
    }
  }
  if (decoded != count || prev != c.max_time_) return {};
  c.id_ = next_chunk_id();
  return c;
}

}  // namespace hpcmon::store
