#include "core/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define HPCMON_CRC32_PCLMUL 1
#endif

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

/// Advance the CRC register `c` over `len` bytes (no init/final XOR).
std::uint32_t slice8(std::uint32_t c, const std::uint8_t* p, std::size_t len) {
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
  return c;
}

#ifdef HPCMON_CRC32_PCLMUL
// Folding constants for the reflected polynomial, x^n mod P(x) bit-reversed
// and shifted one left (Gopal et al., Sec. 4): k1/k2 fold a 128-bit lane
// across 512 bits (four lanes), k3/k4 across 128 bits, k5 takes 64 bits to
// 32, and (P', mu) drive the final Barrett reduction.
constexpr std::uint64_t kK1 = 0x154442bd4;
constexpr std::uint64_t kK2 = 0x1c6e41596;
constexpr std::uint64_t kK3 = 0x1751997d0;
constexpr std::uint64_t kK4 = 0x0ccaa009e;
constexpr std::uint64_t kK5 = 0x163cd6124;
constexpr std::uint64_t kPoly = 0x1db710641;  // P'(x)
constexpr std::uint64_t kMu = 0x1f7011641;    // floor(x^64 / P(x))

/// acc * x^(distance) mod P, xor'ed into `next`: the low half of `acc`
/// multiplies the first constant of `k`, the high half the second.
__attribute__((target("pclmul"))) inline __m128i fold(__m128i acc, __m128i k,
                                                      __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       next);
}

__attribute__((target("pclmul"))) inline __m128i load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Advance the CRC register over `len` bytes, len >= 64 and a multiple of
/// 16: four lanes fold 64-byte blocks in parallel, then collapse into one
/// lane, which folds any 16-byte blocks left and is reduced to 32 bits.
__attribute__((target("pclmul"))) std::uint32_t fold_pclmul(
    std::uint32_t c, const std::uint8_t* p, std::size_t len) {
  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  len -= 64;
  const __m128i k12 = _mm_set_epi64x(static_cast<long long>(kK2),
                                     static_cast<long long>(kK1));
  for (; len >= 64; len -= 64, p += 64) {
    x0 = fold(x0, k12, load(p));
    x1 = fold(x1, k12, load(p + 16));
    x2 = fold(x2, k12, load(p + 32));
    x3 = fold(x3, k12, load(p + 48));
  }
  const __m128i k34 = _mm_set_epi64x(static_cast<long long>(kK4),
                                     static_cast<long long>(kK3));
  x0 = fold(x0, k34, x1);
  x0 = fold(x0, k34, x2);
  x0 = fold(x0, k34, x3);
  for (; len >= 16; len -= 16, p += 16) x0 = fold(x0, k34, load(p));

  // 128 -> 64 bits: the low half times k4, into the high half.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k34, 0x10));
  // 64 -> 32 bits: the low 32 bits times k5, into the rest.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  const __m128i k5 = _mm_set_epi64x(0, static_cast<long long>(kK5));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));
  // Barrett: q = (low32 * mu) mod x^32, then x0 ^= q * P'; the remainder is
  // the second 32-bit word.
  const __m128i poly = _mm_set_epi64x(static_cast<long long>(kMu),
                                      static_cast<long long>(kPoly));
  __m128i q = _mm_and_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly, 0x10), low32);
  q = _mm_clmulepi64_si128(q, poly, 0x00);
  return static_cast<std::uint32_t>(
      _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x0, q), 4)));
}

std::uint32_t crc32_pclmul(const void* data, std::size_t len,
                           std::uint32_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  if (len >= 64) {
    const std::size_t blocks = len & ~std::size_t{15};
    c = fold_pclmul(c, p, blocks);
    p += blocks;
    len -= blocks;
  }
  return slice8(c, p, len) ^ 0xFFFFFFFFu;
}
#endif

using Kernel = std::uint32_t (*)(const void*, std::size_t, std::uint32_t);

Kernel pick_kernel() {
#ifdef HPCMON_CRC32_PCLMUL
  __builtin_cpu_init();
  if (__builtin_cpu_supports("pclmul")) return crc32_pclmul;
#endif
  return crc32_portable;
}

Kernel kernel() {
  static const Kernel k = pick_kernel();
  return k;
}
}  // namespace

std::uint32_t crc32_portable(const void* data, std::size_t len,
                             std::uint32_t seed) {
  return slice8(seed ^ 0xFFFFFFFFu, static_cast<const std::uint8_t*>(data),
                len) ^
         0xFFFFFFFFu;
}

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) {
  return kernel()(data, len, seed);
}

}  // namespace hpcmon::core
