// Reference CRC-32: the original byte-at-a-time implementation, kept
// verbatim as a test oracle.
//
// The production CRC (core/crc32.cpp) was rewritten slicing-by-8 for
// throughput with the hard requirement that every checksum, including a
// seeded (chained) one, stay bit-identical: WAL segments and tier files
// written before the rewrite must still verify. This header preserves the
// slow, obviously-correct original so core_crc32_test and
// bench/ablation_wal_overhead can diff the two. Do not "optimize" this file;
// its value is that it never changes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace hpcmon::refcrc {

namespace detail {
inline std::array<std::uint32_t, 256> build_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}
}  // namespace detail

inline std::uint32_t crc32(const void* data, std::size_t len,
                           std::uint32_t seed = 0) {
  static const auto table = detail::build_table();
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace hpcmon::refcrc
