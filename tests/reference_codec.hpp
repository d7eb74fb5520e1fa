// Reference Gorilla codec: the original bit-at-a-time implementation, kept
// verbatim as a test oracle.
//
// The production codec (store/bitstream.hpp + store/cursor.hpp) was rewritten
// word-at-a-time for throughput with the hard requirement that the emitted
// bitstream — and the decode of arbitrary (even corrupt) streams — stay
// byte-identical / observation-identical. This header preserves the slow,
// obviously-correct original so store_codec_property_test can diff the two
// on seeded random workloads. Do not "optimize" this file; its value is that
// it never changes.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "core/time.hpp"

namespace hpcmon::refcodec {

class RefBitWriter {
 public:
  void write(std::uint64_t value, int bits) {
    for (int i = bits - 1; i >= 0; --i) {
      const bool bit = (value >> i) & 1;
      const std::size_t byte_index = bit_count_ / 8;
      if (byte_index == bytes_.size()) bytes_.push_back(0);
      if (bit) {
        bytes_[byte_index] |=
            static_cast<std::uint8_t>(1u << (7 - bit_count_ % 8));
      }
      ++bit_count_;
    }
  }
  void write_bit(bool bit) { write(bit ? 1 : 0, 1); }
  std::size_t bit_count() const { return bit_count_; }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t bit_count_ = 0;
};

class RefBitReader {
 public:
  explicit RefBitReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint64_t read(int bits) {
    std::uint64_t value = 0;
    for (int i = 0; i < bits; ++i) {
      const std::size_t byte_index = cursor_ / 8;
      if (byte_index >= bytes_.size()) {
        eof_ = true;
        return 0;
      }
      const bool bit = (bytes_[byte_index] >> (7 - cursor_ % 8)) & 1;
      value = (value << 1) | (bit ? 1 : 0);
      ++cursor_;
    }
    return value;
  }
  bool read_bit() { return read(1) != 0; }
  bool eof() const { return eof_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t cursor_ = 0;
  bool eof_ = false;
};

inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

inline void write_dod(RefBitWriter& w, std::int64_t dod) {
  const std::uint64_t z = zigzag(dod);
  if (dod == 0) {
    w.write_bit(false);
  } else if (z < (1u << 14)) {
    w.write(0b10, 2);
    w.write(z, 14);
  } else if (z < (1u << 24)) {
    w.write(0b110, 3);
    w.write(z, 24);
  } else if (z < (1ull << 36)) {
    w.write(0b1110, 4);
    w.write(z, 36);
  } else {
    w.write(0b1111, 4);
    w.write(z, 64);
  }
}

inline std::int64_t read_dod(RefBitReader& r) {
  if (!r.read_bit()) return 0;
  if (!r.read_bit()) return unzigzag(r.read(14));
  if (!r.read_bit()) return unzigzag(r.read(24));
  if (!r.read_bit()) return unzigzag(r.read(36));
  return unzigzag(r.read(64));
}

inline std::uint64_t double_bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

inline double bits_double(std::uint64_t u) {
  double d;
  std::memcpy(&d, &u, sizeof(d));
  return d;
}

/// The original Chunk::compress bitstream (payload only; no framing header).
inline std::vector<std::uint8_t> ref_encode_payload(
    const std::vector<core::TimedValue>& points) {
  RefBitWriter w;
  if (points.empty()) return {};
  w.write(zigzag(points[0].time), 64);
  w.write(double_bits(points[0].value), 64);

  std::int64_t prev_time = points[0].time;
  std::int64_t prev_delta = 0;
  std::uint64_t prev_value = double_bits(points[0].value);
  int prev_leading = -1;
  int prev_trailing = 0;

  for (std::size_t i = 1; i < points.size(); ++i) {
    const std::int64_t delta = points[i].time - prev_time;
    write_dod(w, delta - prev_delta);
    prev_delta = delta;
    prev_time = points[i].time;

    const std::uint64_t bits = double_bits(points[i].value);
    const std::uint64_t x = bits ^ prev_value;
    prev_value = bits;
    if (x == 0) {
      w.write_bit(false);
      continue;
    }
    w.write_bit(true);
    int leading = 0;
    int trailing = 0;
    for (std::uint64_t probe = x; (probe & (1ull << 63)) == 0; probe <<= 1) {
      ++leading;
    }
    for (std::uint64_t probe = x; (probe & 1ull) == 0; probe >>= 1) {
      ++trailing;
    }
    if (leading > 31) leading = 31;
    if (prev_leading >= 0 && leading >= prev_leading &&
        trailing >= prev_trailing) {
      w.write_bit(false);
      const int meaningful = 64 - prev_leading - prev_trailing;
      w.write(x >> prev_trailing, meaningful);
    } else {
      w.write_bit(true);
      const int meaningful = 64 - leading - trailing;
      w.write(static_cast<std::uint64_t>(leading), 5);
      w.write(static_cast<std::uint64_t>(meaningful - 1), 6);
      w.write(x >> trailing, meaningful);
      prev_leading = leading;
      prev_trailing = trailing;
    }
  }
  return w.bytes();
}

/// The original ChunkCursor decode loop over a raw payload: decodes up to
/// `count` points, stopping early (discarding the partial point) on a
/// truncated or garbage stream — the contract the new reader must keep.
inline std::vector<core::TimedValue> ref_decode_payload(
    std::span<const std::uint8_t> payload, std::uint32_t count) {
  std::vector<core::TimedValue> out;
  if (count == 0) return out;
  RefBitReader r(payload);
  std::int64_t time = unzigzag(r.read(64));
  std::uint64_t value_bits = r.read(64);
  out.push_back({time, bits_double(value_bits)});
  std::int64_t prev_delta = 0;
  int prev_leading = 0;
  int prev_trailing = 0;
  for (std::uint32_t idx = 1; idx < count; ++idx) {
    prev_delta = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(prev_delta) +
        static_cast<std::uint64_t>(read_dod(r)));
    time = static_cast<std::int64_t>(static_cast<std::uint64_t>(time) +
                                     static_cast<std::uint64_t>(prev_delta));
    if (r.read_bit()) {
      std::uint64_t x;
      if (r.read_bit()) {
        prev_leading = static_cast<int>(r.read(5));
        const int meaningful = static_cast<int>(r.read(6)) + 1;
        prev_trailing = 64 - prev_leading - meaningful;
        if (prev_trailing < 0) return out;  // garbage stream
        x = r.read(meaningful) << prev_trailing;
      } else {
        const int meaningful = 64 - prev_leading - prev_trailing;
        x = r.read(meaningful) << prev_trailing;
      }
      value_bits ^= x;
    }
    if (r.eof()) return out;  // truncated: stop at what decoded cleanly
    out.push_back({time, bits_double(value_bits)});
  }
  return out;
}

}  // namespace hpcmon::refcodec
