#include "store/fold.hpp"

#include <algorithm>
#include <cstdint>

#include "store/cursor.hpp"
#include "store/tier.hpp"
#include "store/tsdb.hpp"

namespace hpcmon::store {

using core::TimedValue;
using core::TimePoint;

namespace {

constexpr std::size_t kBlock = 256;  // boundary-chunk cursor batch

bool by_time(const TimedValue& a, const TimedValue& b) {
  return a.time < b.time;
}

bool identical(const Slice& a, const Slice& b) {
  return a.min_time == b.min_time && a.max_time == b.max_time &&
         *a.summary == *b.summary;
}

/// Which copy wins an equal timestamp: hot (0), then the finer tier.
std::uint32_t rank(const Slice& s) {
  return s.entry == nullptr ? 0 : 1 + s.file->meta().tier;
}

/// Start of the bucket holding `t` (>= origin) on the grid from `origin`;
/// unsigned, so a range spanning the whole clock cannot overflow.
TimePoint bucket_start(TimePoint origin, TimePoint t, core::Duration width) {
  const auto off =
      static_cast<std::uint64_t>(t) - static_cast<std::uint64_t>(origin);
  return static_cast<TimePoint>(static_cast<std::uint64_t>(t) -
                                off % static_cast<std::uint64_t>(width));
}

}  // namespace

void SliceFold::set_hot(const TimeSeriesStore* store, ReadStages& stages) {
  hot_ = store;
  stages_ = &stages;
  span_.emplace(stages.cache);
}

void SliceFold::add_chunks(
    std::span<const std::shared_ptr<const Chunk>> chunks) {
  chunks_.assign(chunks.begin(), chunks.end());
}

void SliceFold::add_entry(std::shared_ptr<const TierFile> file,
                          const TierEntry& entry) {
  entries_.push_back({std::move(file), &entry});
}

Slice SliceFold::added(std::size_t i) const {
  if (i < chunks_.size()) {
    const auto& c = *chunks_[i];
    return {c.min_time(), c.max_time(), &c.summary(), &c, nullptr, nullptr};
  }
  i -= chunks_.size();
  if (!head_.empty()) {
    if (i == 0) {
      return {head_.min_time(), head_.max_time(), &head_.summary(),
              &head_,           nullptr,          nullptr};
    }
    --i;
  }
  const auto& [file, e] = entries_[i];
  return {e->min_time, e->max_time, &e->summary, nullptr, file.get(), e};
}

bool SliceFold::covered(const Slice& s) const {
  return s.summary->count > 0 &&
         range_.begin <= s.min_time && s.max_time < range_.end;
}

void SliceFold::decode(const Slice& s, std::vector<TimedValue>& out) {
  if (s.chunk == &head_) {
    decode_all(head_, out);
    return;
  }
  stage(&ReadStages::cursor);
  if (s.chunk != nullptr) {
    hot_->cursor_chunks_.add();
    decode_all(*s.chunk, out);
    return;
  }
  tiers_->entry_loads_.add();
  const auto chunk = s.file->load_chunk(*s.entry);
  if (chunk.is_ok()) {
    decode_all(chunk.value(), out);
  } else {
    tiers_->load_failures_.add();
  }
}

template <std::size_t Block, typename Visit>
bool SliceFold::walk(const Slice& s, Visit&& visit) {
  if (s.chunk == nullptr) {  // a tier entry
    std::vector<TimedValue> entry;
    decode(s, entry);
    for (const auto& p : entry) {
      if (range_.contains(p.time) && !visit(p)) return false;
    }
    return true;
  }
  if (sealed(s)) {
    hot_->cursor_chunks_.add();
    stage(&ReadStages::cursor);
  }
  ChunkCursor cursor(*s.chunk);
  TimedValue block[Block];
  while (const std::size_t n = cursor.scan_batch(block)) {
    for (std::size_t k = 0; k < n; ++k) {
      if (block[k].time >= range_.end) return true;
      if (block[k].time >= range_.begin && !visit(block[k])) return false;
    }
  }
  return true;
}

template <typename One, typename Visit>
void SliceFold::fold(One&& one, Visit&& visit) {
  const std::size_t n = size();
  if (!entries_.empty() && order_.empty()) {  // tier entries come unordered
    order_.resize(n);
    for (std::uint32_t k = 0; k < n; ++k) order_[k] = k;
    std::stable_sort(order_.begin(), order_.end(), [&](auto a, auto b) {
      const auto x = added(a);
      const auto y = added(b);
      return x.min_time != y.min_time ? x.min_time < y.min_time
                                      : x.max_time < y.max_time;
    });
  }
  for (std::size_t i = 0; i < n;) {
    const auto first = at(i);
    std::size_t j = i + 1;
    for (auto end = first.max_time; j < n; ++j) {
      const auto next = at(j);
      if (next.min_time > end) break;
      end = std::max(end, next.max_time);
    }
    if (j == i + 1) {
      ++i;
      if (!one(first)) return;
      continue;
    }
    std::vector<Slice> group;  // overlapping, identical ones dropped
    for (; i < j; ++i) {
      const auto s = at(i);
      if (std::none_of(group.begin(), group.end(),
                       [&](const Slice& g) { return identical(g, s); })) {
        group.push_back(s);
      }
    }
    if (group.size() == 1) {
      if (!one(group.front())) return;
      continue;
    }
    // Decode the group in rank order and keep the first copy of each
    // timestamp: the stable sort leaves it in front.
    std::stable_sort(group.begin(), group.end(),
                     [](const Slice& a, const Slice& b) {
                       return rank(a) < rank(b);
                     });
    std::vector<TimedValue> pts;
    for (const auto& s : group) decode(s, pts);
    std::stable_sort(pts.begin(), pts.end(), by_time);
    pts.erase(std::unique(pts.begin(), pts.end(),
                          [](const TimedValue& a, const TimedValue& b) {
                            return a.time == b.time;
                          }),
              pts.end());
    for (const auto& p : pts) {
      if (range_.contains(p.time) && !visit(p)) return;
    }
  }
}

std::vector<TimedValue> SliceFold::query_range() {
  stage(&ReadStages::cache);
  std::size_t n = head_.count();
  for (const auto& c : chunks_) n += c->count();
  for (const auto& e : entries_) n += e.entry->summary.count;
  std::vector<TimedValue> out;
  out.reserve(n);
  const auto keep = [&](const TimedValue& p) {
    out.push_back(p);
    return true;
  };
  fold(
      [&](const Slice& s) {
        if (!sealed(s)) return walk<kBlock>(s, keep);
        bool hit = false;  // `pts` owns the points when the cache is off
        const auto pts = hot_->decoded(*s.chunk, hit);
        if (!hit) stage(&ReadStages::cursor);  // a decode dominates
        const auto lo = std::lower_bound(pts->begin(), pts->end(),
                                         TimedValue{range_.begin, 0}, by_time);
        const auto hi = std::lower_bound(lo, pts->end(),
                                         TimedValue{range_.end, 0}, by_time);
        out.insert(out.end(), lo, hi);
        return true;
      },
      keep);
  // A coarse tier entry's first bucket starts before its first raw sample,
  // so it can reach back past the end of the slice before it.
  if (!entries_.empty() && !std::is_sorted(out.begin(), out.end(), by_time)) {
    std::stable_sort(out.begin(), out.end(), by_time);
  }
  return out;
}

std::optional<TimedValue> SliceFold::latest() const {
  std::optional<Slice> newest;  // a tie goes to the first added
  for (std::size_t i = 0; i < size(); ++i) {
    const auto s = added(i);
    if (!newest || s.max_time > newest->max_time) newest = s;
  }
  if (!newest) return std::nullopt;
  return TimedValue{newest->max_time, newest->summary->last};
}

std::optional<double> SliceFold::aggregate(Agg agg) {
  stage(&ReadStages::summary);
  ChunkSummary acc;
  const auto add = [&](const TimedValue& p) {
    acc.add(p);
    return true;
  };
  fold(
      [&](const Slice& s) {
        if (!covered(s)) return walk<kBlock>(s, add);
        acc.merge(*s.summary);
        if (sealed(s)) hot_->summary_chunks_.add();
        return true;
      },
      add);
  return summary_aggregate(acc, agg);
}

std::vector<TimedValue> SliceFold::downsample(core::Duration bucket, Agg agg) {
  stage(&ReadStages::summary);
  std::vector<TimedValue> out;
  if (bucket <= 0) return out;
  // Points arrive in time order, so the open bucket is the back of the list
  // unless a coarse tier entry's first bucket reaches back.
  std::vector<std::pair<TimePoint, ChunkSummary>> buckets;
  const auto acc_for = [&](TimePoint t) -> ChunkSummary& {
    const auto bs = bucket_start(range_.begin, t, bucket);
    if (buckets.empty() || buckets.back().first < bs) {
      return buckets.emplace_back(bs, ChunkSummary{}).second;
    }
    auto it = std::lower_bound(
        buckets.begin(), buckets.end(), bs,
        [](const auto& b, TimePoint start) { return b.first < start; });
    if (it->first != bs) it = buckets.emplace(it, bs, ChunkSummary{});
    return it->second;
  };
  const auto add = [&](const TimedValue& p) {
    acc_for(p.time).add(p);
    return true;
  };
  fold(
      [&](const Slice& s) {
        if (!covered(s) || bucket_start(range_.begin, s.min_time, bucket) !=
                               bucket_start(range_.begin, s.max_time, bucket)) {
          return walk<kBlock>(s, add);
        }
        acc_for(s.min_time).merge(*s.summary);
        if (sealed(s)) hot_->summary_chunks_.add();
        return true;
      },
      add);
  out.reserve(buckets.size());
  for (const auto& [bs, acc] : buckets) {
    if (const auto v = summary_aggregate(acc, agg)) out.push_back({bs, *v});
  }
  return out;
}

std::size_t SliceFold::scan(
    const std::function<bool(const TimedValue&)>& visit) {
  stage(&ReadStages::cursor);
  std::size_t visited = 0;
  const auto counted = [&](const TimedValue& p) {
    ++visited;
    return visit(p);
  };
  // One cursor point at a time: a visitor that stops decodes no further.
  fold([&](const Slice& s) { return walk<1>(s, counted); }, counted);
  return visited;
}

}  // namespace hpcmon::store
