// TimeSeriesStore: the "hot" in-memory store for numeric telemetry.
//
// Per-series layout: sealed compressed chunks plus an open head that is
// compressed too — a ChunkWriter (chunk.hpp) encodes each accepted point into
// the series' Gorilla stream on arrival, and a seal freezes that stream into
// the next chunk. Queries merge sealed and head data. Thread-safe:
// collectors append from transport threads while dashboards query
// (Table I: "multiple consumers ... at variety of locations").
//
// Query engine (see DESIGN.md "Query engine"): every read snapshots the
// series' slices (sealed chunks + a copy of the head's stream when it
// overlaps the range) and answers through the one fold in fold.hpp, the same
// one TierSpanView runs over hot + tiers.
//   * aggregate()/downsample() answer chunks fully covered by the range from
//     seal-time summaries (summary.hpp) and only stream-decode boundary
//     chunks (cursor.hpp) — stepped aggregation.
//   * query_range() decodes through a bounded LRU of decoded chunks
//     (chunk_cache.hpp) keyed by chunk generation, so dashboard refreshes
//     stop paying decode cost; scan() streams without materializing.
//   * Locking is a reader-writer map lock plus striped per-series mutexes:
//     readers snapshot chunk refs (and copy the head's few hundred bytes)
//     under the stripe and decode OUTSIDE any lock, so queries neither block
//     collector appends to other series nor each other.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "core/ids.hpp"
#include "core/sample.hpp"
#include "core/time.hpp"
#include "obs/registry.hpp"
#include "store/chunk.hpp"
#include "store/chunk_cache.hpp"
#include "store/fold.hpp"

namespace hpcmon::store {

struct StoreStats {
  std::size_t series = 0;
  std::size_t points = 0;
  std::size_t sealed_chunks = 0;
  std::size_t compressed_bytes = 0;  // sealed payloads
  std::size_t head_points = 0;       // not yet sealed
  std::size_t head_bytes = 0;        // open heads' streams, as sealed now
};

class TimeSeriesStore : public SliceReads<TimeSeriesStore> {
 public:
  /// `chunk_points`: head size at which a chunk is sealed and compressed.
  /// `cache_chunks`: decode-cache capacity in chunks (0 disables caching).
  explicit TimeSeriesStore(std::size_t chunk_points = 512,
                           std::size_t cache_chunks = 64)
      : chunk_points_(chunk_points), cache_(cache_chunks) {}

  /// Append one point. Out-of-order AND duplicate-timestamp points
  /// (time <= last time of the series) are rejected (returns false) —
  /// per-series timestamps are strictly increasing, so query_range can never
  /// return duplicate points. Matching TSDB ingest semantics.
  bool append(core::SeriesId series, core::TimePoint t, double value);
  void append(const core::Sample& s) { append(s.series, s.time, s.value); }
  /// Append a whole batch; returns the number accepted. Samples are grouped
  /// by lock stripe (stable, so per-series arrival order — and therefore
  /// every accept/reject/seal decision and sealed-chunk byte — is identical
  /// to appending them one by one), then each stripe mutex is taken once per
  /// batch instead of once per sample. Supersedes the old
  /// `const std::vector<Sample>&` overload: vectors convert implicitly.
  std::size_t append_batch(std::span<const core::Sample> samples);

  // query_range / aggregate / downsample / scan: SliceReads (fold.hpp).

  /// Newest point: the head's kept last point, else the last chunk's
  /// summary. No decode and no allocation.
  std::optional<core::TimedValue> latest(core::SeriesId series) const;

  /// Add the slices of `series` overlapping `fold.range()` to `fold`:
  /// refs to the sealed chunks plus a copy of the head's stream, taken under
  /// the shared map lock and the series' stripe. Counts one store.queries
  /// and starts the read's stage span.
  void snapshot(core::SeriesId series, SliceFold& fold) const;

  /// Snapshot of the sealed chunks entirely older than `cutoff`, taken for
  /// the tiered-retention compactor. `chunks` are shared refs (immutable;
  /// safe to read outside any store lock). `safe_watermark` is the highest
  /// time T such that EVERY point with time < T is inside the returned
  /// chunks: min(cutoff, oldest time still remaining in any series after
  /// those chunks are gone — a straddling chunk or head tail lowers it).
  /// Once the returned chunks are durable elsewhere, dropping replayed
  /// samples older than safe_watermark loses nothing.
  struct SealedChunkSet {
    std::vector<std::pair<core::SeriesId, std::shared_ptr<const Chunk>>>
        chunks;
    core::TimePoint safe_watermark = 0;
  };
  SealedChunkSet sealed_chunks_before(core::TimePoint cutoff) const;

  /// Remove exactly the sealed chunks named by (series, chunk generation
  /// id), dropping them from the decode cache. The compactor evicts the
  /// snapshot it durably tiered — never "everything older than X", which
  /// could swallow a chunk sealed after the snapshot. Returns the number
  /// removed (already-gone ids are ignored).
  std::size_t evict_chunks(
      const std::vector<std::pair<core::SeriesId, std::uint64_t>>& ids);

  bool has_series(core::SeriesId series) const;
  StoreStats stats() const;

  /// Catalog the read-path instruments (store.* counters, cache gauges,
  /// and the stage.query_summary/cursor/cache_us histograms every read is
  /// timed into) in `registry`. Attaching several stores (shards) under the
  /// same names merges them at snapshot time.
  void attach_to(obs::ObsRegistry& registry) const;

  /// Called (outside all store locks) for every series whose LAST data just
  /// left the store — evict_chunks removed its final sealed chunk while the
  /// head was empty. Downstream membership (the rollup tree)
  /// keys off this so retention and node churn retract stale aggregates.
  /// Not synchronized with eviction callers: set before concurrent use.
  void set_series_gone_listener(std::function<void(core::SeriesId)> fn) {
    gone_ = std::move(fn);
  }

 private:
  friend class SliceFold;  // decodes through cache_, counts store.* reads

  // One slot per raw SeriesId up to the highest appended, holding data or
  // not: keep it small.
  struct Series {
    ChunkWriter head;  // its last_time() is the series' ordering fence
    std::vector<std::shared_ptr<const Chunk>> sealed;
  };

  static constexpr std::size_t kLockStripes = 16;

  std::mutex& stripe(std::size_t series_index) const {
    return stripe_mu_[series_index % kLockStripes];
  }
  bool append_at(std::size_t index, core::TimePoint t, double value);
  bool append_locked(Series& s, core::TimePoint t, double value);
  void seal_locked(Series& s);
  /// Decode a sealed chunk through the LRU cache; `hit` reports whether the
  /// cache served it (a miss moves the read to the query_cursor stage).
  DecodedChunk decoded(const Chunk& chunk, bool& hit) const;

  // Lock order: map_mu_ before stripe; never take a stripe while holding
  // another stripe or the cache mutex.
  mutable std::shared_mutex map_mu_;  // guards series_ growth
  mutable std::array<std::mutex, kLockStripes> stripe_mu_;  // per-series state
  std::size_t chunk_points_;
  std::vector<Series> series_;  // indexed by raw(SeriesId)
  mutable ChunkCache cache_;
  mutable obs::Counter queries_;
  mutable obs::Counter summary_chunks_;
  mutable obs::Counter cursor_chunks_;
  mutable ReadStages read_stages_;
  std::function<void(core::SeriesId)> gone_;
};

/// Apply an aggregate to a point vector; nullopt when empty.
std::optional<double> aggregate_points(const std::vector<core::TimedValue>& pts,
                                       Agg agg);

}  // namespace hpcmon::store
