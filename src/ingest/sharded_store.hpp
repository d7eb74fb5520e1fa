// ShardedTimeSeriesStore: N independent TimeSeriesStore shards, hash-
// partitioned by SeriesId.
//
// The paper's Sec. IV-C storage pain point is that canonical per-site SQL
// stores "lack scalability with respect to ingest"; the single
// TimeSeriesStore serializes every append behind one global mutex. Sharding
// partitions both the data and the lock: a series lives in exactly one
// shard, so per-series operations route to that shard's store (and its
// mutex), while whole-store operations (stats, fan-out reads) scatter-gather
// across shards. The result is a drop-in superset of TimeSeriesStore: same
// API, identical per-series query results, plus shard-level concurrency for
// the ingest tier (pipeline.hpp) to exploit.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "obs/registry.hpp"
#include "rollup/tree.hpp"
#include "store/tsdb.hpp"

namespace hpcmon::ingest {

class ShardedTimeSeriesStore
    : public store::SliceReads<ShardedTimeSeriesStore> {
 public:
  /// `shards` must be >= 1; `chunk_points` is forwarded to every shard.
  explicit ShardedTimeSeriesStore(std::size_t shards = 4,
                                  std::size_t chunk_points = 512);

  std::size_t shard_count() const { return shards_.size(); }

  /// Owning shard of a series (deterministic multiplicative hash — dense
  /// SeriesIds spread evenly instead of striding into one shard).
  std::size_t shard_of(core::SeriesId id) const {
    return (core::raw(id) * 2654435761u) % shards_.size();
  }

  store::TimeSeriesStore& shard(std::size_t i) { return *shards_[i]; }
  const store::TimeSeriesStore& shard(std::size_t i) const {
    return *shards_[i];
  }

  // -- TimeSeriesStore-compatible API (routed per series) --------------------
  bool append(core::SeriesId series, core::TimePoint t, double value) {
    const auto k = shard_of(series);
    const bool ok = shards_[k]->append(series, t, value);
    if (rollup_ != nullptr) rollup_->observe(k, core::Sample{series, t, value});
    return ok;
  }
  void append(const core::Sample& s) { append(s.series, s.time, s.value); }
  /// Append a batch: samples are grouped by owning shard (stable counting
  /// sort into a recycled scratch buffer) and each shard gets one
  /// stripe-grouped append_batch call instead of a per-sample route+lock.
  std::size_t append_batch(std::span<const core::Sample> samples);
  /// Pre-routed batch append for the ingest workers: every sample already
  /// belongs to shard `k` (the pipeline partitioned by shard_of), so this
  /// skips re-routing and keeps the rollup observe on the worker's own
  /// delta domain — the shard(k).append_batch fast path, rollup included.
  std::size_t append_batch_on_shard(std::size_t k,
                                    std::span<const core::Sample> samples) {
    const auto accepted = shards_[k]->append_batch(samples);
    if (rollup_ != nullptr) rollup_->observe(k, samples);
    return accepted;
  }

  // query_range / aggregate / downsample / scan: store::SliceReads over the
  // owning shard's snapshot.
  void snapshot(core::SeriesId series, store::SliceFold& fold) const {
    shards_[shard_of(series)]->snapshot(series, fold);
  }
  std::optional<core::TimedValue> latest(core::SeriesId series) const {
    return shards_[shard_of(series)]->latest(series);
  }
  bool has_series(core::SeriesId series) const {
    return shards_[shard_of(series)]->has_series(series);
  }

  // -- Scatter-gather over all shards ----------------------------------------
  /// Aggregate many series at once — the dashboard/per-job fan-out query.
  /// Series are grouped by owning shard and the shard groups run in
  /// parallel (one thread per shard touched); results align with `ids`.
  std::vector<std::optional<double>> aggregate_many(
      const std::vector<core::SeriesId>& ids, const core::TimeRange& range,
      store::Agg agg) const;
  /// Parallel multi-series downsample; results align with `ids`.
  std::vector<std::vector<core::TimedValue>> downsample_many(
      const std::vector<core::SeriesId>& ids, const core::TimeRange& range,
      core::Duration bucket, store::Agg agg) const;

  /// Merged stats across shards (series are disjoint, so sums are exact).
  store::StoreStats stats() const;

  // -- Rollup tree (incremental topology aggregation) ------------------------
  /// Feed every append into `tree` (per-shard delta domains, no cross-shard
  /// lock) and wire each shard's series-gone listener to the tree so
  /// retention retracts rollup membership. `tree->shard_count()` must be
  /// >= shard_count(); nullptr detaches. Not synchronized with appends:
  /// attach before concurrent ingest starts.
  void attach_rollup(rollup::RollupTree* tree);
  rollup::RollupTree* rollup() const { return rollup_; }

  /// O(depth) fleet-wide read from the rollup tree's latest snapshot —
  /// replaces the aggregate_many scatter-gather for topology-level
  /// questions ("mean cpu_util of cabinet 3, now"). nullopt when no tree is
  /// attached or the level is absent/empty.
  std::optional<double> rollup_aggregate(core::ComponentId comp,
                                         std::string_view metric,
                                         store::Agg agg) const {
    if (rollup_ == nullptr) return std::nullopt;
    return rollup_->snapshot()->aggregate(comp, metric, agg);
  }

  /// Attach every shard's read-path instruments under the shared store.*
  /// and stage.query_* names; the registry merges them at snapshot time.
  void attach_to(obs::ObsRegistry& registry) const {
    for (const auto& shard : shards_) shard->attach_to(registry);
  }

 private:
  /// Run `work(shard, indices-into-ids)` for every shard owning at least one
  /// id — concurrently when more than one shard is touched.
  void scatter(const std::vector<core::SeriesId>& ids,
               const std::function<void(std::size_t,
                                        const std::vector<std::size_t>&)>&
                   work) const;
  // TimeSeriesStore owns a mutex (immovable), so shards live behind pointers.
  std::vector<std::unique_ptr<store::TimeSeriesStore>> shards_;
  rollup::RollupTree* rollup_ = nullptr;
};

}  // namespace hpcmon::ingest
