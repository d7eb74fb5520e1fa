#include "ingest/sharded_store.hpp"

#include <thread>

namespace hpcmon::ingest {

ShardedTimeSeriesStore::ShardedTimeSeriesStore(std::size_t shards,
                                               std::size_t chunk_points) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<store::TimeSeriesStore>(chunk_points));
  }
}

void ShardedTimeSeriesStore::attach_rollup(rollup::RollupTree* tree) {
  rollup_ = tree;
  for (auto& shard : shards_) {
    if (tree != nullptr) {
      shard->set_series_gone_listener(
          [tree](core::SeriesId id) { tree->forget_series(id); });
    } else {
      shard->set_series_gone_listener(nullptr);
    }
  }
}

std::size_t ShardedTimeSeriesStore::append_batch(
    std::span<const core::Sample> samples) {
  if (samples.empty()) return 0;
  if (shards_.size() == 1) {
    const auto accepted = shards_[0]->append_batch(samples);
    if (rollup_ != nullptr) rollup_->observe(0, samples);
    return accepted;
  }
  // Stable counting sort by owning shard into a recycled scratch buffer;
  // each shard then takes one batched append (which stripe-groups
  // internally). Per-series order is preserved, so results are identical to
  // routing sample by sample.
  thread_local std::vector<core::Sample> scratch;
  thread_local std::vector<std::size_t> offsets;
  offsets.assign(shards_.size() + 1, 0);
  for (const auto& s : samples) ++offsets[shard_of(s.series) + 1];
  for (std::size_t k = 1; k <= shards_.size(); ++k) {
    offsets[k] += offsets[k - 1];
  }
  scratch.resize(samples.size());
  thread_local std::vector<std::size_t> fill;
  fill.assign(offsets.begin(), offsets.end());
  for (const auto& s : samples) scratch[fill[shard_of(s.series)]++] = s;

  std::size_t accepted = 0;
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    const std::size_t n = offsets[k + 1] - offsets[k];
    if (n == 0) continue;
    const std::span<const core::Sample> group(scratch.data() + offsets[k], n);
    accepted += shards_[k]->append_batch(group);
    if (rollup_ != nullptr) rollup_->observe(k, group);
  }
  return accepted;
}

void ShardedTimeSeriesStore::scatter(
    const std::vector<core::SeriesId>& ids,
    const std::function<void(std::size_t, const std::vector<std::size_t>&)>&
        work) const {
  std::vector<std::vector<std::size_t>> groups(shards_.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    groups[shard_of(ids[i])].push_back(i);
  }
  std::vector<std::size_t> active;
  for (std::size_t s = 0; s < groups.size(); ++s) {
    if (!groups[s].empty()) active.push_back(s);
  }
  if (active.size() <= 1) {  // nothing to parallelize
    for (const auto s : active) work(s, groups[s]);
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(active.size() - 1);
  for (std::size_t k = 1; k < active.size(); ++k) {
    workers.emplace_back(
        [&, s = active[k]] { work(s, groups[s]); });
  }
  work(active[0], groups[active[0]]);  // this thread takes the first group
  for (auto& w : workers) w.join();
}

std::vector<std::optional<double>> ShardedTimeSeriesStore::aggregate_many(
    const std::vector<core::SeriesId>& ids, const core::TimeRange& range,
    store::Agg agg) const {
  std::vector<std::optional<double>> out(ids.size());
  scatter(ids, [&](std::size_t shard, const std::vector<std::size_t>& idx) {
    for (const auto i : idx) {
      out[i] = shards_[shard]->aggregate(ids[i], range, agg);
    }
  });
  return out;
}

std::vector<std::vector<core::TimedValue>>
ShardedTimeSeriesStore::downsample_many(const std::vector<core::SeriesId>& ids,
                                        const core::TimeRange& range,
                                        core::Duration bucket,
                                        store::Agg agg) const {
  std::vector<std::vector<core::TimedValue>> out(ids.size());
  scatter(ids, [&](std::size_t shard, const std::vector<std::size_t>& idx) {
    for (const auto i : idx) {
      out[i] = shards_[shard]->downsample(ids[i], range, bucket, agg);
    }
  });
  return out;
}

store::StoreStats ShardedTimeSeriesStore::stats() const {
  store::StoreStats merged;
  for (const auto& shard : shards_) {
    const auto st = shard->stats();
    merged.series += st.series;
    merged.points += st.points;
    merged.sealed_chunks += st.sealed_chunks;
    merged.compressed_bytes += st.compressed_bytes;
    merged.head_points += st.head_points;
    merged.head_bytes += st.head_bytes;
  }
  return merged;
}

}  // namespace hpcmon::ingest
