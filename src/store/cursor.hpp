// ChunkCursor: streaming point-by-point decoder of a chunk's Gorilla
// bitstream.
//
// query_range used to decompress-everything-then-filter: every overlapping
// chunk was materialized into a full vector even when the query wanted the
// first few points. A cursor decodes one point per next() call, so callers
// stop as soon as they pass range.end (early exit) and never allocate a
// point vector at all — the dashboard/detector streaming path the paper's
// Table I consumers ("multiple consumers ... at variety of locations") need.
//
// scan_batch() is the bulk fast path underneath decompress, the decode
// cache, aggregation boundary walks, and tier downsampling: it decodes a
// run of points into a caller-provided buffer with all decoder state held
// in registers, only spilling back to the cursor at block boundaries. Use
// next() when a scan may stop early; use scan_batch()/decode_all() when
// most of the chunk is needed anyway.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/time.hpp"
#include "store/bitstream.hpp"

namespace hpcmon::store {

class Chunk;

/// Forward-only decoder over one chunk. The chunk must outlive the cursor
/// (the cursor reads the chunk's payload in place; chunks are immutable).
class ChunkCursor {
 public:
  explicit ChunkCursor(const Chunk& chunk);

  /// Decode the next point into `out`; false at end of stream (or on a
  /// truncated bitstream, matching Chunk::decompress's stop-early contract).
  bool next(core::TimedValue& out) { return scan_batch({&out, 1}) == 1; }

  /// Decode up to out.size() points into `out`; returns the number produced.
  /// Returns less than out.size() only at end of stream or on a malformed
  /// bitstream (same stop-early contract as next()). Resumable: alternating
  /// scan_batch and next on one cursor yields the same point sequence.
  std::size_t scan_batch(std::span<core::TimedValue> out);

  /// Points not yet decoded (upper bound; a malformed stream ends sooner).
  std::uint32_t remaining() const { return count_ - index_; }

 private:
  BitReader reader_;
  std::uint32_t count_ = 0;
  std::uint32_t index_ = 0;
  std::int64_t time_ = 0;
  std::int64_t prev_delta_ = 0;
  std::uint64_t value_bits_ = 0;
  int prev_leading_ = 0;
  int prev_trailing_ = 0;
};

/// Append every point of `chunk` to `out` in one batch decode; returns the
/// number appended (== chunk.count() unless the bitstream is malformed).
/// `out` keeps its existing contents, so callers can fuse multi-chunk walks
/// into one reused buffer.
std::size_t decode_all(const Chunk& chunk, std::vector<core::TimedValue>& out);

}  // namespace hpcmon::store
