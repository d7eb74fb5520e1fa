// Exhaustive corruption sweep over the tier file format: every single-bit
// flip and every truncation of a real tier file must surface as a typed
// kCorruption — either at TierFile::load() (header/index damage, caught by
// the index CRC) or at load_chunk() (payload damage, caught by the per-
// entry CRC + decode validation). Nothing may load silently wrong. And a
// TierStore that finds a damaged file at open() quarantines it (renamed
// *.corrupt) instead of serving it — or refusing to start.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "store/chunk.hpp"
#include "store/tier.hpp"
#include "store/tsdb.hpp"

namespace hpcmon::store {
namespace {

using core::kSecond;
using core::SeriesId;
using core::StatusCode;

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Build one real tier file (two series, three chunks) through the durable
/// ingest path and return its bytes + path.
struct BuiltFile {
  std::string dir;
  std::string path;
  std::vector<std::uint8_t> bytes;
  std::size_t entries = 0;
};

BuiltFile build_tier_file(const std::string& name) {
  BuiltFile out;
  out.dir = "/tmp/hpcmon_corrupt_" + name;
  std::filesystem::remove_all(out.dir);
  TierStore::Options o;
  o.dir = out.dir;
  TierStore tiers(std::move(o));
  EXPECT_TRUE(tiers.open().is_ok());

  TierWriteSpec spec;
  spec.tier = 0;
  spec.cls = 1;
  auto add = [&spec](std::uint32_t sid, core::TimePoint t0, int n) {
    std::vector<core::TimedValue> pts;
    for (int i = 0; i < n; ++i) {
      pts.push_back({t0 + i * kSecond, 1.25 * i - double(sid)});
    }
    const auto chunk = Chunk::compress(pts);
    TierWriteSpec::SeriesChunk sc;
    sc.series = SeriesId{sid};
    sc.min_time = chunk.min_time();
    sc.max_time = chunk.max_time();
    sc.summary = chunk.summary();
    sc.payload = chunk.serialize();
    spec.chunks.push_back(std::move(sc));
  };
  add(1, 0, 16);
  add(1, 100 * kSecond, 16);
  add(2, 0, 12);
  EXPECT_TRUE(tiers.ingest_hot({spec}, 200 * kSecond).is_ok());
  EXPECT_EQ(tiers.file_count(), 1u);
  out.path = tiers.files(0)[0]->path();
  out.bytes = read_file(out.path);
  out.entries = tiers.files(0)[0]->entries().size();
  EXPECT_EQ(out.entries, 3u);
  return out;
}

/// True when the damaged copy is fully rejected: load fails kCorruption, or
/// load succeeds and at least one entry's chunk read fails kCorruption.
/// (A flip under an already-loaded index only ever lives in some payload.)
bool damage_detected(const std::string& path, bool* load_failed) {
  auto loaded = TierFile::load(path);
  if (!loaded.is_ok()) {
    *load_failed = true;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
        << loaded.status().message();
    return loaded.status().code() == StatusCode::kCorruption;
  }
  *load_failed = false;
  for (const auto& e : loaded.value()->entries()) {
    const auto chunk = loaded.value()->load_chunk(e);
    if (!chunk.is_ok()) {
      EXPECT_EQ(chunk.status().code(), StatusCode::kCorruption);
      return chunk.status().code() == StatusCode::kCorruption;
    }
  }
  return false;
}

TEST(TierCorruptionTest, EveryBitFlipIsDetectedAndTyped) {
  const auto built = build_tier_file("bitflip");
  ASSERT_FALSE(built.bytes.empty());
  // The format is gapless (header | index | payloads), so the two CRC
  // domains cover every byte; a gap would make the sweep below unsound.
  std::size_t payload_bytes = 0;
  {
    const auto f = TierFile::load(built.path);
    ASSERT_TRUE(f.is_ok());
    for (const auto& e : f.value()->entries()) payload_bytes += e.payload_len;
  }
  ASSERT_EQ(built.bytes.size(), 56 + 84 * built.entries + payload_bytes)
      << "tier file has uncovered padding bytes";

  const std::string victim = built.dir + "/flipped.bits";
  std::size_t index_rejections = 0;
  std::size_t payload_rejections = 0;
  for (std::size_t byte = 0; byte < built.bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto copy = built.bytes;
      copy[byte] ^= static_cast<std::uint8_t>(1u << bit);
      write_file(victim, copy);
      bool load_failed = false;
      ASSERT_TRUE(damage_detected(victim, &load_failed))
          << "bit " << bit << " of byte " << byte
          << " flipped without any kCorruption";
      (load_failed ? index_rejections : payload_rejections) += 1;
    }
  }
  // Both detection layers fired: the index CRC on header/index damage, the
  // entry CRCs on payload damage.
  EXPECT_GT(index_rejections, 0u);
  EXPECT_GT(payload_rejections, 0u);
}

TEST(TierCorruptionTest, EveryTruncationIsDetectedAndTyped) {
  const auto built = build_tier_file("trunc");
  const std::string victim = built.dir + "/truncated.bits";
  for (std::size_t len = 0; len < built.bytes.size(); ++len) {
    auto copy = built.bytes;
    copy.resize(len);
    write_file(victim, copy);
    bool load_failed = false;
    ASSERT_TRUE(damage_detected(victim, &load_failed))
        << "truncation to " << len << " bytes loaded silently";
  }
}

TEST(TierCorruptionTest, OpenQuarantinesDamagedFilesAndServesTheRest) {
  const auto built = build_tier_file("quarantine");
  // Smash a byte in the index region of the published file, in place.
  auto damaged = built.bytes;
  damaged[60] ^= 0xFF;
  write_file(built.path, damaged);

  TierStore::Options o;
  o.dir = built.dir;
  TierStore reopened(std::move(o));
  ASSERT_TRUE(reopened.open().is_ok())
      << "a damaged file must quarantine, not brick the store";
  EXPECT_EQ(reopened.quarantined_count(), 1u);
  EXPECT_EQ(reopened.file_count(), 0u);
  EXPECT_FALSE(std::filesystem::exists(built.path))
      << "damaged file still in the serving directory";
  EXPECT_TRUE(std::filesystem::exists(built.path + ".corrupt"))
      << "damaged file was deleted instead of preserved for forensics";
  // The store still serves (nothing left here, but the read path works).
  const TierSpanView<TimeSeriesStore> ladder(&reopened, nullptr);
  EXPECT_TRUE(ladder.query_range(SeriesId{1}, {0, 1000 * kSecond}).empty());
}

}  // namespace
}  // namespace hpcmon::store
