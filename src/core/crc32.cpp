#include "core/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace hpcmon::core {

namespace {
// Slicing-by-8 tables: kTables[0] is the classic byte-at-a-time table, and
// kTables[k][b] is the CRC register after byte b is followed by k zero
// bytes, so one lookup per byte of an 8-byte word advances all eight at once.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables build_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = build_tables();
}  // namespace

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  if constexpr (std::endian::native == std::endian::little) {
    for (; len >= 8; len -= 8, p += 8) {
      std::uint32_t lo = 0;
      std::uint32_t hi = 0;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= c;
      c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
    }
  }
  for (; len > 0; --len, ++p) {
    c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace hpcmon::core
