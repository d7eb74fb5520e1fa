// CRC-32: both production kernels (the dispatched crc32(), PCLMULQDQ folding
// where the CPU has it, and the portable slicing-by-8 crc32_portable())
// against the byte-at-a-time oracle (tests/reference_crc32.hpp) on every
// length up to 4 KiB at every alignment under a seed, on seeded buffers up
// to 1 MiB, and under seed chaining.
#include "core/crc32.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/rng.hpp"
#include "reference_crc32.hpp"

namespace hpcmon::core {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.engine()());
  return out;
}

using Kernel = std::uint32_t (*)(const void*, std::size_t, std::uint32_t);

struct Named {
  const char* name;
  Kernel crc;
};

const Named kKernels[] = {{"dispatched", crc32}, {"portable", crc32_portable}};

TEST(Crc32Test, CheckValue) {
  const char digits[] = "123456789";
  for (const auto& k : kKernels) {
    EXPECT_EQ(k.crc(digits, 9, 0), 0xCBF43926u) << k.name;
    EXPECT_EQ(k.crc(nullptr, 0, 0), 0u) << k.name;
  }
  EXPECT_EQ(refcrc::crc32(digits, 9), 0xCBF43926u);
}

TEST(Crc32Test, MatchesOracleAtEveryLengthAndOffset) {
  // Every length 0..4096 at every offset 0..15 crosses each kernel's block
  // boundaries (8, 16, 64 bytes) from every alignment. Each case runs twice:
  // from seed 0, and chained onto the checksum of the bytes before the
  // offset. The oracle for length n is the one for n - 1 advanced one byte.
  constexpr std::size_t kMaxLen = 4096;
  const auto buf = random_bytes(kMaxLen + 16, 7);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    const auto* p = buf.data() + offset;
    const std::uint32_t chained = refcrc::crc32(buf.data(), offset + 1);
    std::uint32_t want = 0;               // oracle(p, len) from seed 0
    std::uint32_t want_seeded = chained;  // oracle(p, len) from `chained`
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      if (len > 0) {
        want = refcrc::crc32(p + len - 1, 1, want);
        want_seeded = refcrc::crc32(p + len - 1, 1, want_seeded);
      }
      for (const auto& k : kKernels) {
        ASSERT_EQ(k.crc(p, len, 0), want)
            << k.name << " offset " << offset << " len " << len;
        ASSERT_EQ(k.crc(p, len, chained), want_seeded)
            << k.name << " seeded, offset " << offset << " len " << len;
      }
    }
  }
}

TEST(Crc32Test, MatchesOracleOnSeededBuffersUpTo1MiB) {
  Rng sizes(11);
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const auto n = static_cast<std::size_t>(sizes.uniform_int(0, 1 << 20));
    const auto buf = random_bytes(n, seed);
    const auto want = refcrc::crc32(buf.data(), buf.size());
    for (const auto& k : kKernels) {
      ASSERT_EQ(k.crc(buf.data(), buf.size(), 0), want)
          << k.name << " seed " << seed << " size " << n;
    }
  }
  const auto full = random_bytes(1 << 20, 99);
  const auto want = refcrc::crc32(full.data(), full.size());
  for (const auto& k : kKernels) {
    EXPECT_EQ(k.crc(full.data(), full.size(), 0), want) << k.name;
  }
}

TEST(Crc32Test, SeedChainsAcrossSplits) {
  const auto buf = random_bytes(4099, 3);
  const auto whole = refcrc::crc32(buf.data(), buf.size());
  for (std::size_t split :
       {0u, 1u, 7u, 8u, 9u, 15u, 16u, 63u, 64u, 65u, 2048u, 4098u, 4099u}) {
    for (const auto& k : kKernels) {
      const auto a = k.crc(buf.data(), split, 0);
      EXPECT_EQ(k.crc(buf.data() + split, buf.size() - split, a), whole)
          << k.name << " split " << split;
    }
    EXPECT_EQ(refcrc::crc32(buf.data() + split, buf.size() - split,
                            refcrc::crc32(buf.data(), split)),
              whole)
        << "split " << split;
  }
}

}  // namespace
}  // namespace hpcmon::core
