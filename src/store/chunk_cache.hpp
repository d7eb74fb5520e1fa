// ChunkCache: bounded LRU of recently decompressed chunks.
//
// Dashboards poll the same windows every few seconds (the paper's Table I
// lists dashboards, detectors, and response hooks all reading concurrently),
// so the same sealed chunks get decoded over and over. Entries are keyed by
// the chunk's generation id — unique per compressed chunk for the process
// lifetime — so eviction (evict_chunks) invalidates precisely and a recycled
// slot can never serve stale points. Decoded vectors are handed out as
// shared_ptr: a hit is a refcount bump, and readers keep their snapshot even
// if the entry is evicted mid-query.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/time.hpp"
#include "obs/registry.hpp"

namespace hpcmon::store {

using DecodedChunk = std::shared_ptr<const std::vector<core::TimedValue>>;

class ChunkCache {
 public:
  /// `capacity`: maximum cached chunks; 0 disables caching entirely.
  explicit ChunkCache(std::size_t capacity) : capacity_(capacity) {}

  /// Look up a decoded chunk; refreshes LRU position on hit.
  DecodedChunk get(std::uint64_t chunk_id);

  /// Insert a freshly decoded chunk, evicting the least-recently-used entry
  /// when full. No-op when capacity is 0 or the id is already cached.
  void put(std::uint64_t chunk_id, DecodedChunk points);

  /// Drop a chunk (store eviction); counts as an invalidation if present.
  void erase(std::uint64_t chunk_id);

  /// Catalog the cache's instruments as store.cache_* in `registry`. Entries
  /// gauges sum across attachments so sharded stores report total residency.
  void attach_to(obs::ObsRegistry& registry) const;

 private:
  using LruList = std::list<std::pair<std::uint64_t, DecodedChunk>>;

  std::mutex mu_;
  std::size_t capacity_;
  LruList lru_;  // front = most recently used
  std::unordered_map<std::uint64_t, LruList::iterator> index_;
  // Counted straight into obs instruments: the degradation loop, the
  // hpcmon.self.* export, and status() all read the same atomics.
  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter evictions_;
  obs::Counter invalidations_;
  obs::Gauge entries_;
};

}  // namespace hpcmon::store
