// Reference compact sample codec: a plain, byte-at-a-time encoder and
// decoder of the WAL's record layout (segment version 2), kept as a test
// oracle.
//
// The production transcoder (transport::compact_samples) reads the
// fixed-width frame in place and writes value bytes with one 8-byte store;
// its decoder (transport::decode_compact_samples) sizes nothing before it
// has checked the header count. This header restates the documented layout
// from scratch and shares no code with transport/, so resilience_wal_test
// can pin segment bytes and transport_compact_codec_test can diff the two
// on random and corrupted payloads. Do not "optimize" this file; its value
// is that it is obviously the layout.
//
// Layout (all multi-byte fields least significant byte first):
//   header: [i64 sweep_time][u32 origin][u32 count]
//   per sample: control byte c = d << 7 | n << 3 | t, then
//     unless d: varint(zigzag(series - previous series)),
//               varint(zigzag(time - sweep_time));
//     then the n low bytes of (bits ^ previous bits) >> 8t.
//   d is set exactly when series == previous + 1 and time == sweep_time.
//   The previous series and bits of the first sample are 0.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "core/sample.hpp"

namespace hpcmon::refsample {

inline void put_le(std::vector<std::uint8_t>& out, std::uint64_t v,
                   int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

inline void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  do {
    std::uint8_t b = v & 0x7F;
    v >>= 7;
    if (v != 0) b |= 0x80;
    out.push_back(b);
  } while (v != 0);
}

inline std::uint64_t zigzag(std::int64_t v) {
  return v >= 0 ? 2 * static_cast<std::uint64_t>(v)
                : 2 * (~static_cast<std::uint64_t>(v)) + 1;
}

inline std::int64_t unzigzag(std::uint64_t v) {
  return (v & 1) == 0 ? static_cast<std::int64_t>(v / 2)
                      : static_cast<std::int64_t>(~(v / 2));
}

/// Two's-complement difference a - b, wrapping like the i64 fields do.
inline std::int64_t wrapping_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}

inline std::vector<std::uint8_t> encode(const core::SampleBatch& batch) {
  std::vector<std::uint8_t> out;
  put_le(out, static_cast<std::uint64_t>(batch.sweep_time), 8);
  put_le(out, core::raw(batch.origin), 4);
  put_le(out, batch.samples.size(), 4);
  std::int64_t prev_series = 0;
  std::uint64_t prev_bits = 0;
  for (const auto& s : batch.samples) {
    const std::int64_t series = core::raw(s.series);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &s.value, 8);
    const std::uint64_t x = bits ^ prev_bits;
    int t = 0;
    int n = 0;
    if (x != 0) {
      while (((x >> (8 * t)) & 0xFF) == 0) ++t;
      n = 8 - t;
      while (((x >> (8 * (t + n - 1))) & 0xFF) == 0) --n;
    }
    const bool dense =
        series == prev_series + 1 && s.time == batch.sweep_time;
    out.push_back(static_cast<std::uint8_t>((dense ? 0x80 : 0) | n << 3 | t));
    if (!dense) {
      put_varint(out, zigzag(series - prev_series));
      put_varint(out, zigzag(wrapping_sub(s.time, batch.sweep_time)));
    }
    put_le(out, x >> (8 * t), n);
    prev_series = series;
    prev_bits = bits;
  }
  return out;
}

/// Decodes a payload the layout allows, or nothing: a short header, a
/// truncated field, a varint past 10 bytes or 64 bits, a series outside
/// u32, a control byte with n == 0 < t or n + t > 8, or trailing bytes.
inline std::optional<core::SampleBatch> decode(
    std::span<const std::uint8_t> in) {
  std::size_t pos = 0;
  const auto get_le = [&](int bytes, std::uint64_t& v) {
    if (in.size() - pos < static_cast<std::size_t>(bytes)) return false;
    v = 0;
    for (int i = 0; i < bytes; ++i) v |= std::uint64_t{in[pos++]} << (8 * i);
    return true;
  };
  const auto get_varint = [&](std::uint64_t& v) {
    v = 0;
    for (int i = 0; i < 10; ++i) {
      if (pos == in.size()) return false;
      const std::uint8_t b = in[pos++];
      if (i == 9 && b > 1) return false;
      v |= std::uint64_t{b & 0x7Fu} << (7 * i);
      if ((b & 0x80) == 0) return true;
    }
    return false;
  };
  std::uint64_t sweep = 0;
  std::uint64_t origin = 0;
  std::uint64_t count = 0;
  if (!get_le(8, sweep) || !get_le(4, origin) || !get_le(4, count)) {
    return std::nullopt;
  }
  core::SampleBatch batch;
  batch.sweep_time = static_cast<core::TimePoint>(sweep);
  batch.origin = core::ComponentId{static_cast<std::uint32_t>(origin)};
  std::int64_t series = 0;
  std::uint64_t bits = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (pos == in.size()) return std::nullopt;
    const std::uint8_t c = in[pos++];
    const int n = (c >> 3) & 0x0F;
    const int t = c & 0x07;
    if ((n == 0 && t != 0) || n + t > 8) return std::nullopt;
    core::Sample s;
    s.time = batch.sweep_time;
    if ((c & 0x80) != 0) {
      series += 1;
    } else {
      std::uint64_t dseries = 0;
      std::uint64_t dtime = 0;
      if (!get_varint(dseries) || !get_varint(dtime)) return std::nullopt;
      const std::int64_t d = unzigzag(dseries);
      // A step outside +-2^32 can never land back inside u32.
      if (d > (std::int64_t{1} << 32) || d < -(std::int64_t{1} << 32)) {
        return std::nullopt;
      }
      series += d;
      s.time = static_cast<core::TimePoint>(
          static_cast<std::uint64_t>(batch.sweep_time) +
          static_cast<std::uint64_t>(unzigzag(dtime)));
    }
    if (series < 0 || series > 0xFFFFFFFFll) return std::nullopt;
    std::uint64_t low = 0;
    if (!get_le(n, low)) return std::nullopt;
    bits ^= low << (8 * t);
    s.series = core::SeriesId{static_cast<std::uint32_t>(series)};
    std::memcpy(&s.value, &bits, 8);
    batch.samples.push_back(s);
  }
  if (pos != in.size()) return std::nullopt;
  return batch;
}

}  // namespace hpcmon::refsample
