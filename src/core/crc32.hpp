// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320).
//
// Used by the resilience tier to frame write-ahead-log records so that a
// torn or bit-flipped record is detected on replay instead of silently
// corrupting the restored hot tier (the paper's Table I "Data Storage" row:
// stores must be trustworthy across restarts).
//
// Every WAL record and tier-file entry is checksummed, so crc32() picks its
// kernel once per process. On x86 with PCLMULQDQ it folds 64-byte blocks
// by carry-less multiplication (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009) and hands
// the tail under 16 bytes to the portable kernel. The portable kernel is
// slicing-by-8 (eight table lookups per 8-byte word instead of one per
// byte); it is the only one on other CPUs. Both are bit-identical to the
// byte-at-a-time definition, which tests/reference_crc32.hpp keeps as the
// oracle.
#pragma once

#include <cstddef>
#include <cstdint>

namespace hpcmon::core {

/// Checksum `len` bytes; `seed` allows incremental computation by passing a
/// previous result (standard init/final XOR handled internally).
std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed = 0);

/// The slicing-by-8 kernel alone, whatever the CPU: the same result as
/// crc32(), for tests and benches that must exercise it on any machine.
std::uint32_t crc32_portable(const void* data, std::size_t len,
                             std::uint32_t seed = 0);

}  // namespace hpcmon::core
