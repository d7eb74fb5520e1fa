// Retention eviction the way the compactor does it: snapshot the sealed
// chunks entirely older than a cutoff (sealed_chunks_before), then evict
// exactly that snapshot (evict_chunks). Tests that need "drop everything
// sealed before T" go through the same pair the production path uses.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "ingest/sharded_store.hpp"
#include "store/tsdb.hpp"

namespace hpcmon::evict {

using Evicted =
    std::vector<std::pair<core::SeriesId, std::shared_ptr<const store::Chunk>>>;

/// Evict every sealed chunk of `store` whose newest point is older than
/// `cutoff`; returns the evicted snapshot.
inline Evicted sealed_before(store::TimeSeriesStore& store,
                             core::TimePoint cutoff) {
  auto set = store.sealed_chunks_before(cutoff);
  std::vector<std::pair<core::SeriesId, std::uint64_t>> ids;
  for (const auto& [sid, chunk] : set.chunks) ids.emplace_back(sid, chunk->id());
  store.evict_chunks(ids);
  return std::move(set.chunks);
}

/// The same across every shard of a sharded store.
inline Evicted sealed_before(ingest::ShardedTimeSeriesStore& store,
                             core::TimePoint cutoff) {
  Evicted out;
  for (std::size_t k = 0; k < store.shard_count(); ++k) {
    auto part = sealed_before(store.shard(k), cutoff);
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

}  // namespace hpcmon::evict
