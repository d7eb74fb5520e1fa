// CRC-32: the slicing-by-8 production loop against the byte-at-a-time
// oracle (tests/reference_crc32.hpp) on every short length at every
// alignment, on seeded buffers up to 1 MiB, and under seed chaining.
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

TEST(Crc32Test, CheckValue) {
  const char digits[] = "123456789";
  EXPECT_EQ(crc32(digits, 9), 0xCBF43926u);
  EXPECT_EQ(refcrc::crc32(digits, 9), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, MatchesOracleAtEveryLengthAndOffset) {
  const auto buf = random_bytes(1024 + 8, 7);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const auto* p = buf.data() + offset;
      ASSERT_EQ(crc32(p, len), refcrc::crc32(p, len))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32Test, MatchesOracleOnSeededBuffersUpTo1MiB) {
  Rng sizes(11);
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const auto n = static_cast<std::size_t>(sizes.uniform_int(0, 1 << 20));
    const auto buf = random_bytes(n, seed);
    ASSERT_EQ(crc32(buf.data(), buf.size()),
              refcrc::crc32(buf.data(), buf.size()))
        << "seed " << seed << " size " << n;
  }
  const auto full = random_bytes(1 << 20, 99);
  EXPECT_EQ(crc32(full.data(), full.size()),
            refcrc::crc32(full.data(), full.size()));
}

TEST(Crc32Test, SeedChainsAcrossSplits) {
  const auto buf = random_bytes(4099, 3);
  const auto whole = crc32(buf.data(), buf.size());
  for (std::size_t split : {0u, 1u, 7u, 8u, 9u, 63u, 2048u, 4098u, 4099u}) {
    const auto a = crc32(buf.data(), split);
    EXPECT_EQ(crc32(buf.data() + split, buf.size() - split, a), whole)
        << "split " << split;
    EXPECT_EQ(refcrc::crc32(buf.data() + split, buf.size() - split,
                            refcrc::crc32(buf.data(), split)),
              whole)
        << "split " << split;
  }
}

}  // namespace
}  // namespace hpcmon::core
