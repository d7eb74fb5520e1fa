// Per-chunk statistics for stepped aggregation.
//
// The paper (Sec. IV-C) motivates time-series engines chosen for "superior
// data compression and query performance"; the query half of that claim
// rests on never decompressing data you can answer from metadata. A
// ChunkSummary is computed once at seal time and stored beside the
// compressed payload, so aggregate()/downsample() answer fully-covered
// chunks in O(1) and only decode the boundary chunks of a range — the
// stepped-aggregation trick every production TSDB (Influx, Prometheus,
// Gorilla) uses. The same struct doubles as the running accumulator when
// summaries and raw points are combined in time order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string_view>

#include "core/time.hpp"

namespace hpcmon::store {

enum class Agg : std::uint8_t { kSum, kMean, kMin, kMax, kCount, kLast };

std::string_view to_string(Agg agg);

/// Order-sensitive value statistics over a run of points. `add`/`merge` must
/// be fed in time order (chunks are, and queries walk chunks oldest-first),
/// so `first`/`last` track the temporally first/last values.
struct ChunkSummary {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double first = 0.0;
  double last = 0.0;

  void add(double v) {
    if (count == 0) {
      min = max = first = v;
    } else {
      min = std::min(min, v);
      max = std::max(max, v);
    }
    last = v;
    sum += v;
    ++count;
  }
  void add(const core::TimedValue& p) { add(p.value); }

  /// Fold in a summary of strictly later points.
  void merge(const ChunkSummary& later) {
    if (later.count == 0) return;
    if (count == 0) {
      *this = later;
      return;
    }
    count += later.count;
    sum += later.sum;
    min = std::min(min, later.min);
    max = std::max(max, later.max);
    last = later.last;
  }

  friend bool operator==(const ChunkSummary&, const ChunkSummary&) = default;
};

/// Answer an aggregate from a summary alone; nullopt when no points.
inline std::optional<double> summary_aggregate(const ChunkSummary& s, Agg agg) {
  if (s.count == 0) return std::nullopt;
  switch (agg) {
    case Agg::kSum: return s.sum;
    case Agg::kMean: return s.sum / static_cast<double>(s.count);
    case Agg::kMin: return s.min;
    case Agg::kMax: return s.max;
    case Agg::kCount: return static_cast<double>(s.count);
    case Agg::kLast: return s.last;
  }
  return std::nullopt;
}

}  // namespace hpcmon::store
