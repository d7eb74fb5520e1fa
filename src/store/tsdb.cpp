#include "store/tsdb.hpp"

#include <algorithm>

namespace hpcmon::store {

using core::SeriesId;
using core::TimedValue;
using core::TimePoint;
using core::TimeRange;

std::string_view to_string(Agg agg) {
  switch (agg) {
    case Agg::kSum: return "sum";
    case Agg::kMean: return "mean";
    case Agg::kMin: return "min";
    case Agg::kMax: return "max";
    case Agg::kCount: return "count";
    case Agg::kLast: return "last";
  }
  return "?";
}

std::optional<double> aggregate_points(const std::vector<TimedValue>& pts,
                                       Agg agg) {
  ChunkSummary acc;
  for (const auto& p : pts) acc.add(p);
  return summary_aggregate(acc, agg);
}

bool TimeSeriesStore::append(SeriesId id, TimePoint t, double value) {
  const auto i = core::raw(id);
  {
    std::shared_lock map_lock(map_mu_);
    if (i < series_.size()) return append_at(i, t, value);
  }
  std::unique_lock map_lock(map_mu_);  // slow path: grow the series table
  if (i >= series_.size()) series_.resize(i + 1);
  return append_at(i, t, value);
}

bool TimeSeriesStore::append_at(std::size_t i, TimePoint t, double value) {
  std::scoped_lock lock(stripe(i));
  return append_locked(series_[i], t, value);
}

bool TimeSeriesStore::append_locked(Series& s, TimePoint t, double value) {
  if (t <= s.head.last_time()) return false;  // strict ordering per series
  s.head.append(t, value);
  if (s.head.count() >= chunk_points_) seal_locked(s);
  return true;
}

std::size_t TimeSeriesStore::append_batch(
    std::span<const core::Sample> samples) {
  if (samples.empty()) return 0;
  std::size_t max_index = 0;
  for (const auto& s : samples) {
    max_index =
        std::max(max_index, static_cast<std::size_t>(core::raw(s.series)));
  }
  std::shared_lock map_lock(map_mu_);
  if (max_index >= series_.size()) {
    map_lock.unlock();
    {
      std::unique_lock grow(map_mu_);
      if (max_index >= series_.size()) series_.resize(max_index + 1);
    }
    map_lock.lock();
  }

  // Stable counting sort of sample indices by lock stripe: each stripe mutex
  // is then taken once per batch instead of once per sample. Within a stripe
  // samples keep arrival order, and appends to different series commute, so
  // accept/seal decisions — and sealed chunk bytes — match the per-sample
  // path exactly.
  std::array<std::size_t, kLockStripes + 1> offsets{};
  for (const auto& s : samples) {
    ++offsets[core::raw(s.series) % kLockStripes + 1];
  }
  for (std::size_t k = 1; k <= kLockStripes; ++k) offsets[k] += offsets[k - 1];
  thread_local std::vector<std::uint32_t> order;
  order.resize(samples.size());
  auto fill = offsets;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    order[fill[core::raw(samples[i].series) % kLockStripes]++] =
        static_cast<std::uint32_t>(i);
  }

  // Each append reads and writes most of its series' slot (the head's
  // encoder state), and a stripe's series sit kLockStripes slots apart, so
  // fetch the slot kPrefetch samples ahead while this one encodes.
  constexpr std::size_t kPrefetch = 8;
  std::size_t accepted = 0;
  for (std::size_t k = 0; k < kLockStripes; ++k) {
    if (offsets[k] == offsets[k + 1]) continue;
    std::scoped_lock lock(stripe_mu_[k]);
    for (std::size_t j = offsets[k]; j < offsets[k + 1]; ++j) {
      if (j + kPrefetch < offsets[k + 1]) {
        const auto* ahead = reinterpret_cast<const char*>(
            &series_[core::raw(samples[order[j + kPrefetch]].series)]);
        __builtin_prefetch(ahead, 1);
        __builtin_prefetch(ahead + 64, 1);
        __builtin_prefetch(ahead + sizeof(Series) - 1, 1);
      }
      const auto& s = samples[order[j]];
      if (append_locked(series_[core::raw(s.series)], s.time, s.value)) {
        ++accepted;
      }
    }
  }
  return accepted;
}

void TimeSeriesStore::seal_locked(Series& s) {
  if (s.head.empty()) return;
  s.sealed.push_back(std::make_shared<const Chunk>(s.head.seal()));
}

void TimeSeriesStore::snapshot(SeriesId id, SliceFold& fold) const {
  queries_.add();
  fold.set_hot(this, read_stages_);
  const auto& range = fold.range();
  if (range.empty()) return;
  const auto i = core::raw(id);
  std::shared_lock map_lock(map_mu_);
  if (i >= series_.size()) return;
  std::scoped_lock lock(stripe(i));
  const auto& s = series_[i];
  // Sealed chunks are time-ordered and disjoint, so the ones overlapping the
  // range are one run: from the first that reaches range.begin to the first
  // that starts at range.end.
  const auto first = std::partition_point(
      s.sealed.begin(), s.sealed.end(),
      [&](const auto& c) { return c->max_time() < range.begin; });
  const auto last = std::partition_point(
      first, s.sealed.end(),
      [&](const auto& c) { return c->min_time() < range.end; });
  fold.add_chunks({first, last});
  // The stream cannot be clipped without decoding: copy all of it (a few
  // hundred bytes) and let the fold decode it outside the lock.
  if (!s.head.empty() && s.head.min_time() < range.end &&
      range.begin <= s.head.last_time()) {
    fold.add_head(s.head.copy());
  }
}

DecodedChunk TimeSeriesStore::decoded(const Chunk& chunk, bool& hit) const {
  if (auto cached = cache_.get(chunk.id())) {
    hit = true;
    return cached;
  }
  hit = false;
  auto pts =
      std::make_shared<const std::vector<TimedValue>>(chunk.decompress());
  cache_.put(chunk.id(), pts);
  return pts;
}

std::optional<TimedValue> TimeSeriesStore::latest(SeriesId id) const {
  const auto i = core::raw(id);
  std::shared_lock map_lock(map_mu_);
  if (i >= series_.size()) return std::nullopt;
  std::scoped_lock lock(stripe(i));
  const auto& s = series_[i];
  if (!s.head.empty()) return s.head.last();
  if (!s.sealed.empty()) {
    // The seal-time summary already knows the newest sealed point: no decode.
    const auto& c = *s.sealed.back();
    if (c.count() > 0) return TimedValue{c.max_time(), c.summary().last};
  }
  return std::nullopt;
}

TimeSeriesStore::SealedChunkSet TimeSeriesStore::sealed_chunks_before(
    TimePoint cutoff) const {
  std::shared_lock map_lock(map_mu_);
  SealedChunkSet out;
  out.safe_watermark = cutoff;
  for (std::size_t i = 0; i < series_.size(); ++i) {
    std::scoped_lock lock(stripe(i));
    const auto& s = series_[i];
    TimePoint oldest_remaining = INT64_MAX;
    for (const auto& c : s.sealed) {
      if (c->max_time() < cutoff) {
        out.chunks.emplace_back(SeriesId{static_cast<std::uint32_t>(i)}, c);
      } else {
        oldest_remaining = std::min(oldest_remaining, c->min_time());
      }
    }
    if (!s.head.empty()) {
      oldest_remaining = std::min(oldest_remaining, s.head.min_time());
    }
    out.safe_watermark = std::min(out.safe_watermark, oldest_remaining);
  }
  return out;
}

std::size_t TimeSeriesStore::evict_chunks(
    const std::vector<std::pair<core::SeriesId, std::uint64_t>>& ids) {
  std::size_t evicted = 0;
  std::vector<std::uint64_t> dropped;
  std::vector<SeriesId> gone;
  {
    std::shared_lock map_lock(map_mu_);
    for (const auto& [sid, chunk_id] : ids) {
      const auto i = core::raw(sid);
      if (i >= series_.size()) continue;
      std::scoped_lock lock(stripe(i));
      auto& s = series_[i];
      for (auto it = s.sealed.begin(); it != s.sealed.end(); ++it) {
        if ((*it)->id() == chunk_id) {
          dropped.push_back(chunk_id);
          s.sealed.erase(it);
          ++evicted;
          if (gone_ && s.sealed.empty() && s.head.empty()) {
            gone.push_back(sid);
          }
          break;
        }
      }
    }
  }
  for (const auto id : dropped) cache_.erase(id);
  for (const auto id : gone) gone_(id);
  return evicted;
}

bool TimeSeriesStore::has_series(SeriesId id) const {
  const auto i = core::raw(id);
  std::shared_lock map_lock(map_mu_);
  if (i >= series_.size()) return false;
  std::scoped_lock lock(stripe(i));
  const auto& s = series_[i];
  return !s.head.empty() || !s.sealed.empty();
}

StoreStats TimeSeriesStore::stats() const {
  std::shared_lock map_lock(map_mu_);
  StoreStats st;
  for (std::size_t i = 0; i < series_.size(); ++i) {
    std::scoped_lock lock(stripe(i));
    const auto& s = series_[i];
    if (s.head.empty() && s.sealed.empty()) continue;
    ++st.series;
    st.head_points += s.head.count();
    st.head_bytes += s.head.byte_size();
    st.points += s.head.count();
    for (const auto& c : s.sealed) {
      st.points += c->count();
      st.compressed_bytes += c->byte_size();
      ++st.sealed_chunks;
    }
  }
  return st;
}

void TimeSeriesStore::attach_to(obs::ObsRegistry& registry) const {
  registry.attach({"store.queries", "queries",
                   "read-path calls (range+aggregate+downsample+scan)"},
                  &queries_);
  registry.attach(
      {"store.summary_chunks", "chunks",
       "chunks answered from seal-time summaries without decoding"},
      &summary_chunks_);
  registry.attach({"store.cursor_chunks", "chunks",
                   "boundary chunks streamed point-by-point"},
                  &cursor_chunks_);
  cache_.attach_to(registry);
  registry.attach(obs::stage_info("query_summary"), &read_stages_.summary);
  registry.attach(obs::stage_info("query_cursor"), &read_stages_.cursor);
  registry.attach(obs::stage_info("query_cache"), &read_stages_.cache);
}

}  // namespace hpcmon::store
