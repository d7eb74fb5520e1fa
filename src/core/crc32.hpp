// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320).
//
// Used by the resilience tier to frame write-ahead-log records so that a
// torn or bit-flipped record is detected on replay instead of silently
// corrupting the restored hot tier (the paper's Table I "Data Storage" row:
// stores must be trustworthy across restarts).
//
// Every WAL record is checksummed on the publish path, so the loop is
// slicing-by-8 (eight table lookups per 8-byte word instead of one per
// byte). Its output is bit-identical to the byte-at-a-time definition, which
// tests/reference_crc32.hpp keeps as the oracle.
#pragma once

#include <cstddef>
#include <cstdint>

namespace hpcmon::core {

/// Checksum `len` bytes; `seed` allows incremental computation by passing a
/// previous result (standard init/final XOR handled internally).
std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed = 0);

}  // namespace hpcmon::core
