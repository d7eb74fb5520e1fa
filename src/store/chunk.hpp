// Compressed timeseries chunk: Gorilla-style encoding.
//
// The paper (Sec. IV-C) reports sites abandoning row-oriented SQL stores for
// time-series engines ("InfluxDB was chosen for its superior data compression
// and query performance for high-volume time series data"). This codec is
// the standard technique behind those engines (Facebook Gorilla, VLDB'15):
// delta-of-delta timestamps with prefix codes, XOR float values with
// leading/trailing-zero windows. bench/ablation_storage quantifies the win
// over a naive row store; bench/ablation_query_engine quantifies the query
// side (summary.hpp, cursor.hpp).
//
// A series' open head is a ChunkWriter: each point is encoded into the
// stream as it arrives, and sealing freezes that stream into a Chunk.
// Chunk::compress is the same writer run over a whole vector, so there is
// one encoder and a sealed chunk is byte-identical to compress() of its
// points.
#pragma once

#include <cstdint>
#include <vector>

#include "core/time.hpp"
#include "store/bitstream.hpp"
#include "store/summary.hpp"

namespace hpcmon::store {

class ChunkWriter;

/// Immutable compressed block of (time, value) points for one series.
class Chunk {
 public:
  /// Compress `points` (time-ordered; none gives the empty chunk).
  /// Also computes the chunk's value summary and assigns a process-unique
  /// generation id.
  static Chunk compress(const std::vector<core::TimedValue>& points);

  std::vector<core::TimedValue> decompress() const;

  core::TimePoint min_time() const { return min_time_; }
  core::TimePoint max_time() const { return max_time_; }
  std::uint32_t count() const { return count_; }
  std::size_t byte_size() const { return bytes_.size(); }

  /// Value statistics computed at seal time; aggregate queries over ranges
  /// that fully cover this chunk are answered from here without decoding.
  const ChunkSummary& summary() const { return summary_; }

  /// Process-unique generation id (0 for the empty chunk and for a copy of
  /// an open head). Decode caches key on this, so a chunk evicted and
  /// replaced can never alias a cache entry.
  std::uint64_t id() const { return id_; }

  /// Raw compressed payload (for ChunkCursor's in-place streaming decode).
  const std::vector<std::uint8_t>& payload() const { return bytes_; }

  /// Serialize to a flat byte buffer (header + payload) for archiving.
  std::vector<std::uint8_t> serialize() const;
  /// Rebuild from serialize() output; returns empty chunk on malformed input
  /// (truncated header, count/payload mismatch, garbage bitstream — the
  /// payload is decode-validated against count/min/max before acceptance).
  static Chunk deserialize(const std::vector<std::uint8_t>& raw);

  bool empty() const { return count_ == 0; }
  /// True when the chunk's time span intersects [range.begin, range.end).
  /// An empty range (begin >= end) intersects nothing.
  bool overlaps(const core::TimeRange& range) const {
    return !range.empty() && min_time_ < range.end && range.begin <= max_time_;
  }

 private:
  friend class ChunkWriter;

  std::vector<std::uint8_t> bytes_;
  core::TimePoint min_time_ = 0;
  core::TimePoint max_time_ = 0;
  std::uint32_t count_ = 0;
  std::uint64_t id_ = 0;
  ChunkSummary summary_;
};

/// The open head of one series: a Gorilla stream that grows one point at a
/// time, with the running summary and the codec state between points.
/// Appending encodes the point (the buffer starts empty and doubles as it
/// fills); seal() freezes the stream into a Chunk with no decode and no
/// re-encode. Not thread-safe: the store guards each writer with its
/// series' stripe lock.
class ChunkWriter {
 public:
  /// Encode one point, no older than the previous one (the store rejects
  /// any `t <= last_time()` before it gets here).
  void append(core::TimePoint t, double value);

  /// Points in the open stream (0 right after a seal).
  std::uint32_t count() const {
    return static_cast<std::uint32_t>(summary_.count);
  }
  bool empty() const { return summary_.count == 0; }
  /// Time of the open stream's first point (meaningful when non-empty).
  core::TimePoint min_time() const { return first_time_; }
  /// Time of the newest point ever appended: the open stream's last while
  /// it is non-empty, and kept across seal() so a series stays strictly
  /// increasing from chunk to chunk. INT64_MIN before the first point.
  core::TimePoint last_time() const { return last_time_; }
  /// The newest point of the open stream (requires !empty()).
  core::TimedValue last() const { return {last_time_, summary_.last}; }
  /// Bytes the stream would occupy if sealed now.
  std::size_t byte_size() const { return bits_.byte_size(); }

  /// Pre-size the buffer (Chunk::compress: worst case for a known count).
  void reserve(std::size_t bytes) { bits_.reserve(bytes); }
  /// The open stream as an unsealed Chunk (generation id 0, so no decode
  /// cache keys on it); the writer is unchanged.
  Chunk copy() const;
  /// Freeze the open stream into a sealed Chunk with a fresh generation id
  /// and start the next one; the buffer keeps its capacity. Empty in, empty
  /// chunk out.
  Chunk seal();

 private:
  BitWriter bits_;
  core::TimePoint last_time_ = INT64_MIN;
  std::int64_t prev_delta_ = 0;
  ChunkSummary summary_;  // `last` is also the XOR reference value
  core::TimePoint first_time_ = 0;
  std::int8_t prev_leading_ = -1;  // -1: no reusable window yet
  std::int8_t prev_trailing_ = 0;
};

}  // namespace hpcmon::store
