// SliceFold: the one read path for hot and tiered data.
//
// Table I asks for hierarchical retention that operators can still query
// across. A read of one series is one fold over its time-ordered slices. A
// slice is a sealed hot chunk, the hot head or a tier entry: a time span,
// the ChunkSummary of the raw samples it holds and a way to decode it. The
// head is a copy of the open Gorilla stream with its running summary, so it
// answers like a chunk, except that no decode cache or store.* chunk counter
// ever sees it. TimeSeriesStore::snapshot and TierStore::snapshot add the
// slices, and SliceReads defines the read surface once for TimeSeriesStore,
// ShardedTimeSeriesStore and TierSpanView.
//
// The seam rule (DESIGN.md "Query engine"):
//   * The hot snapshot is taken before the cold one. The compactor publishes
//     a pass before it evicts it, so a chunk in flight is seen at least once.
//   * A slice is answered from its summary only when it overlaps no other
//     slice in the read.
//   * Overlapping slices are decoded and merged point by point. At an equal
//     timestamp the hot copy wins (between tiers, the finer one). Identical
//     slices (same span, same summary) collapse to the first, hot before
//     cold, so a chunk seen on both sides still reads from its summary.
//   * Every bucket grid starts at range.begin.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/ids.hpp"
#include "core/time.hpp"
#include "obs/instruments.hpp"
#include "store/chunk.hpp"
#include "store/summary.hpp"

namespace hpcmon::store {

class TimeSeriesStore;
class TierFile;
class TierStore;
struct TierEntry;

/// One time-ordered run of a series' points inside a read. The fold holds
/// the references that keep it alive.
struct Slice {
  core::TimePoint min_time = 0;
  core::TimePoint max_time = 0;
  const ChunkSummary* summary = nullptr;  // raw-sample stats
  const Chunk* chunk = nullptr;           // a hot chunk or the head, or
  const TierFile* file = nullptr;         // a tier entry's file
  const TierEntry* entry = nullptr;       // and the entry in it
};

/// The stage histograms a store times its reads into. A read's span starts
/// in `cache` and moves as the fold learns how the read was answered.
struct ReadStages {
  obs::Histogram summary;  // from seal-time summaries alone
  obs::Histogram cursor;   // a boundary or uncached chunk was decoded
  obs::Histogram cache;    // materialized from the decode cache
};

/// One read of one series over `range`: filled by snapshots, hot side
/// first, then answered by one of the reads.
class SliceFold {
 public:
  explicit SliceFold(const core::TimeRange& range) : range_(range) {}

  const core::TimeRange& range() const { return range_; }

  /// `store` owns the chunks added next (its decode cache, its store.*
  /// counters); the read is timed into `stages` until destruction.
  void set_hot(const TimeSeriesStore* store, ReadStages& stages);
  /// The sealed chunks overlapping the range, time-ordered.
  void add_chunks(std::span<const std::shared_ptr<const Chunk>> chunks);
  /// A copy of the head's open stream (it follows the sealed chunks).
  void add_head(Chunk head) { head_ = std::move(head); }
  /// `tiers` owns the entries added next (its tier.* counters).
  void set_cold(const TierStore* tiers) { tiers_ = tiers; }
  void add_entry(std::shared_ptr<const TierFile> file, const TierEntry& entry);

  std::vector<core::TimedValue> query_range();
  /// The last raw value of the slice that ends last.
  std::optional<core::TimedValue> latest() const;
  std::optional<double> aggregate(Agg agg);
  std::vector<core::TimedValue> downsample(core::Duration bucket, Agg agg);
  std::size_t scan(const std::function<bool(const core::TimedValue&)>& visit);

 private:
  void stage(obs::Histogram ReadStages::*h) {
    if (span_) span_->set(stages_->*h);
  }
  std::size_t size() const {
    return chunks_.size() + (head_.empty() ? 0 : 1) + entries_.size();
  }
  /// Slice `i` in the order added: hot chunks, the head, tier entries.
  Slice added(std::size_t i) const;
  /// Slice `i` in time order.
  Slice at(std::size_t i) const { return added(order_.empty() ? i : order_[i]); }
  bool covered(const Slice& s) const;
  /// Lone slices go to `one` (answered or walked), overlapping groups are
  /// merged into `visit`; either returns false to stop the read.
  template <typename One, typename Visit>
  void fold(One&& one, Visit&& visit);
  /// A sealed hot chunk, as opposed to the head or a tier entry.
  bool sealed(const Slice& s) const {
    return s.chunk != nullptr && s.chunk != &head_;
  }
  /// Stream a slice's in-range points, `Block` cursor points at a time.
  template <std::size_t Block, typename Visit>
  bool walk(const Slice& s, Visit&& visit);
  /// Append every point of `s`; a tier entry that fails its checks is
  /// counted and reads as empty.
  void decode(const Slice& s, std::vector<core::TimedValue>& out);

  struct Entry {
    std::shared_ptr<const TierFile> file;
    const TierEntry* entry;
  };

  core::TimeRange range_;
  std::vector<std::shared_ptr<const Chunk>> chunks_;  // hot, time-ordered
  Chunk head_;  // unsealed: generation id 0, never cached
  std::vector<Entry> entries_;  // cold, in tier order
  /// Time order over every slice, built only once tier entries are added:
  /// the hot side adds its slices in order.
  std::vector<std::uint32_t> order_;
  const TimeSeriesStore* hot_ = nullptr;
  const TierStore* tiers_ = nullptr;
  ReadStages* stages_ = nullptr;
  std::optional<obs::Span> span_;
};

/// The read surface, defined once for every store: `Store` supplies
/// snapshot(series, fold) (and its own latest()). query_range decodes
/// sealed hot chunks through the owning store's cache and streams the head;
/// aggregate and downsample answer slices covered by the range (and, for
/// downsample, by one bucket) from their summaries, the head's included;
/// scan streams oldest first until `visit` returns false and returns the
/// number of points visited.
template <typename Store>
class SliceReads {
 public:
  std::vector<core::TimedValue> query_range(core::SeriesId series,
                                            const core::TimeRange& range) const {
    SliceFold fold(range);
    self().snapshot(series, fold);
    return fold.query_range();
  }
  std::optional<double> aggregate(core::SeriesId series,
                                  const core::TimeRange& range, Agg agg) const {
    SliceFold fold(range);
    self().snapshot(series, fold);
    return fold.aggregate(agg);
  }
  std::vector<core::TimedValue> downsample(core::SeriesId series,
                                           const core::TimeRange& range,
                                           core::Duration bucket,
                                           Agg agg) const {
    SliceFold fold(range);
    self().snapshot(series, fold);
    return fold.downsample(bucket, agg);
  }
  std::size_t scan(core::SeriesId series, const core::TimeRange& range,
                   const std::function<bool(const core::TimedValue&)>& visit)
      const {
    SliceFold fold(range);
    self().snapshot(series, fold);
    return fold.scan(visit);
  }

 private:
  const Store& self() const { return static_cast<const Store&>(*this); }
};

}  // namespace hpcmon::store
