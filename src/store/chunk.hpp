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
#pragma once

#include <cstdint>
#include <vector>

#include "core/series_buffer.hpp"  // TimedValue
#include "core/time.hpp"
#include "store/summary.hpp"

namespace hpcmon::store {

/// Immutable compressed block of (time, value) points for one series.
class Chunk {
 public:
  /// Compress `points` (must be non-empty and time-ordered). Also computes
  /// the chunk's value summary and assigns a process-unique generation id.
  static Chunk compress(const std::vector<core::TimedValue>& points);

  std::vector<core::TimedValue> decompress() const;

  core::TimePoint min_time() const { return min_time_; }
  core::TimePoint max_time() const { return max_time_; }
  std::uint32_t count() const { return count_; }
  std::size_t byte_size() const { return bytes_.size(); }

  /// Value statistics computed at seal time; aggregate queries over ranges
  /// that fully cover this chunk are answered from here without decoding.
  const ChunkSummary& summary() const { return summary_; }

  /// Process-unique generation id (0 for the empty chunk). Decode caches key
  /// on this, so a chunk evicted and replaced can never alias a cache entry.
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
  std::vector<std::uint8_t> bytes_;
  core::TimePoint min_time_ = 0;
  core::TimePoint max_time_ = 0;
  std::uint32_t count_ = 0;
  std::uint64_t id_ = 0;
  ChunkSummary summary_;
};

}  // namespace hpcmon::store
