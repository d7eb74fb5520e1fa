#include "store/chunk_cache.hpp"

namespace hpcmon::store {

DecodedChunk ChunkCache::get(std::uint64_t chunk_id) {
  std::scoped_lock lock(mu_);
  const auto it = index_.find(chunk_id);
  if (it == index_.end()) {
    misses_.add();
    return nullptr;
  }
  hits_.add();
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->second;
}

void ChunkCache::put(std::uint64_t chunk_id, DecodedChunk points) {
  if (capacity_ == 0) return;
  std::scoped_lock lock(mu_);
  if (index_.contains(chunk_id)) return;  // racing readers decoded it twice
  while (lru_.size() >= capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    evictions_.add();
  }
  lru_.emplace_front(chunk_id, std::move(points));
  index_.emplace(chunk_id, lru_.begin());
  entries_.set(static_cast<double>(lru_.size()));
}

void ChunkCache::erase(std::uint64_t chunk_id) {
  std::scoped_lock lock(mu_);
  const auto it = index_.find(chunk_id);
  if (it == index_.end()) return;
  lru_.erase(it->second);
  index_.erase(it);
  invalidations_.add();
  entries_.set(static_cast<double>(lru_.size()));
}

void ChunkCache::attach_to(obs::ObsRegistry& registry) const {
  using obs::GaugeAgg;
  registry.attach({"store.cache_hits", "chunks", "decode-cache hits"}, &hits_);
  registry.attach({"store.cache_misses", "chunks", "decode-cache misses"},
                  &misses_);
  registry.attach(
      {"store.cache_evictions", "chunks", "decode-cache capacity evictions"},
      &evictions_);
  registry.attach({"store.cache_invalidations", "chunks",
                   "decode-cache entries dropped by store eviction"},
                  &invalidations_);
  obs::InstrumentInfo entries;
  entries.name = "store.cache_entries";
  entries.unit = "chunks";
  entries.description = "decoded chunks resident in the cache";
  entries.gauge_agg = GaugeAgg::kSum;  // shards report total residency
  registry.attach(entries, &entries_);
}

}  // namespace hpcmon::store
