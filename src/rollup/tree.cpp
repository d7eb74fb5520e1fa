#include "rollup/tree.hpp"

#include <algorithm>
#include <bit>

namespace hpcmon::rollup {

// -- RollupSnapshot -----------------------------------------------------------

const RollupStat* RollupSnapshot::find(core::ComponentId comp,
                                       std::string_view metric) const {
  const auto it = plane_by_metric_.find(metric);
  if (it == plane_by_metric_.end()) return nullptr;
  const Plane& plane = planes_[it->second];
  const auto raw = core::raw(comp);
  if (raw >= plane.slot_of_comp->size()) return nullptr;
  const auto slot = (*plane.slot_of_comp)[raw];
  if (slot == 0) return nullptr;
  return &plane.total[slot - 1];
}

std::size_t RollupSnapshot::entry_count() const {
  std::size_t n = 0;
  for (const auto& p : planes_) n += p.total.size();
  return n;
}

std::vector<std::string> RollupSnapshot::metrics() const {
  std::vector<std::string> out;
  out.reserve(planes_.size());
  for (const auto& p : planes_) out.push_back(p.metric);
  return out;
}

void RollupSnapshot::for_each(
    const std::function<void(std::string_view, core::ComponentId,
                             const RollupStat&)>& fn) const {
  for (const auto& p : planes_) {
    for (std::size_t i = 0; i < p.total.size(); ++i) {
      fn(p.metric, (*p.comp_of_slot)[i], p.total[i]);
    }
  }
}

// -- RollupTree ---------------------------------------------------------------

RollupTree::RollupTree(const core::MetricRegistry& registry,
                       RollupConfig config)
    : registry_(registry) {
  const auto shards = std::max<std::size_t>(1, config.shards);
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  // snapshot() must never return null: start from an empty version-0 view.
  snap_.store(std::make_shared<const RollupSnapshot>(),
              std::memory_order_release);
}

void RollupTree::observe(std::size_t shard,
                         std::span<const core::Sample> samples) {
  if (samples.empty()) return;
  Shard& sh = *shards_[shard % shards_.size()];
  std::scoped_lock lock(sh.mu);
  auto& pending = sh.pending[sh.epoch];
  auto& dirty = sh.dirty[sh.epoch];
  // The fold reads local views of the route and cell tables, refreshed only
  // on the rare paths that grow them (a series' first sample in this shard,
  // a cell past the buffer's end), so the per-sample loop never reloads
  // either table's bounds.
  const std::uint32_t* route = sh.route.data();
  std::size_t route_size = sh.route.size();
  Latest* cells = pending.data();
  std::size_t cell_count = pending.size();
  for (const auto& s : samples) {
    if (s.time == kNoTime) continue;  // the sentinel can't be represented
    const auto raw = core::raw(s.series);
    std::uint32_t r = raw < route_size ? route[raw] : kUnresolved;
    if (r == kUnresolved) {
      if (raw >= sh.route.size()) sh.route.resize(raw + 1, kUnresolved);
      r = sh.route[raw] = resolve_route(s.series);
      route = sh.route.data();
      route_size = sh.route.size();
    }
    if (r == kIgnored) continue;
    const std::uint32_t cell = r - 2;
    if (cell >= cell_count) {
      pending.resize(cell + 1);
      cells = pending.data();
      cell_count = pending.size();
    }
    Latest& p = cells[cell];
    if (p.t == kNoTime) {
      p.t = s.time;
      p.v = s.value;
      dirty.push_back(cell);
    } else if (s.time > p.t) {
      // Strictly-greater: on an equal-time tie the first value wins, which
      // is exactly the store's duplicate-timestamp rejection.
      p.t = s.time;
      p.v = s.value;
    }
  }
}

std::uint32_t RollupTree::resolve_route(core::SeriesId id) {
  std::scoped_lock lock(mu_);
  const auto raw = core::raw(id);
  if (const auto it = cell_of_series_.find(raw); it != cell_of_series_.end()) {
    return it->second + 2;
  }
  if (raw >= registry_.series_count()) return kIgnored;  // not interned
  const auto comp = registry_.series_component(id);
  if (comp == core::kNoComponent) return kIgnored;
  const auto plane_idx = intern_plane(registry_.series_metric(id));
  const auto slot = intern_comp(plane_idx, comp);
  const auto cell = static_cast<std::uint32_t>(cells_.size());
  cells_.push_back({plane_idx, slot});
  cell_of_series_.emplace(raw, cell);
  return cell + 2;
}

std::uint32_t RollupTree::intern_plane(std::uint32_t metric_index) {
  if (const auto it = plane_by_metric_.find(metric_index);
      it != plane_by_metric_.end()) {
    return it->second;
  }
  const auto idx = static_cast<std::uint32_t>(planes_.size());
  Plane plane;
  plane.metric = registry_.metric(metric_index).name;
  planes_.push_back(std::move(plane));
  plane_by_metric_.emplace(metric_index, idx);
  return idx;
}

std::uint32_t RollupTree::intern_comp(std::uint32_t plane_idx,
                                      core::ComponentId comp) {
  const auto raw = core::raw(comp);
  {
    const Plane& plane = planes_[plane_idx];
    if (raw < plane.slot_of_comp.size() && plane.slot_of_comp[raw] != 0) {
      return plane.slot_of_comp[raw] - 1;
    }
  }
  const auto& info = registry_.component(comp);
  // Recurse first: the parent chain must exist before this node links in
  // (and the recursion may reallocate plane.nodes).
  std::uint32_t parent_slot = kNoSlot;
  if (info.parent != core::kNoComponent) {
    parent_slot = intern_comp(plane_idx, info.parent);
  }
  Plane& plane = planes_[plane_idx];
  const auto slot = static_cast<std::uint32_t>(plane.nodes.size());
  Node node;
  node.comp = comp;
  node.parent = parent_slot;
  node.depth = parent_slot == kNoSlot ? 0 : plane.nodes[parent_slot].depth + 1;
  plane.nodes.push_back(std::move(node));
  plane.latest.emplace_back();
  plane.up.push_back(kNoEntry << 1 | kChildless);  // set by rebuild_layout
  plane.grown = true;
  ++total_levels_;
  if (raw >= plane.slot_of_comp.size()) plane.slot_of_comp.resize(raw + 1, 0);
  plane.slot_of_comp[raw] = slot + 1;
  // The shared snapshot views of the maps are stale now; the next publish
  // rebuilds them once.
  plane.snap_slot_of_comp = nullptr;
  plane.snap_comp_of_slot = nullptr;
  if (parent_slot != kNoSlot) {
    // Children stay sorted by raw ComponentId: fold order is deterministic,
    // so scatter-gather references can reproduce sums bit for bit.
    auto& kids = plane.nodes[parent_slot].children;
    const auto pos = std::upper_bound(
        kids.begin(), kids.end(), raw, [&](std::uint32_t r, std::uint32_t b) {
          return r < core::raw(plane.nodes[b].comp);
        });
    kids.insert(pos, slot);
  }
  return slot;
}

void RollupTree::forget_series(core::SeriesId id) {
  const auto raw = core::raw(id);
  // Discard any pending update first, shard locks only (lock order is
  // shard.mu -> mu_, so mu_ is NOT held here). Only the current write
  // epoch is cleared — the retired buffer belongs to a tick mid-drain, and
  // an update racing a drain may apply in either order, same as before
  // double-buffering. A later append re-fills the cell and legitimately
  // resurrects the series.
  for (const auto& shp : shards_) {
    Shard& sh = *shp;
    std::scoped_lock lock(sh.mu);
    if (raw >= sh.route.size()) continue;
    const auto r = sh.route[raw];
    if (r == kUnresolved || r == kIgnored) continue;
    const auto cell = r - 2;
    auto& pending = sh.pending[sh.epoch];
    if (cell < pending.size()) pending[cell].t = kNoTime;
  }
  std::scoped_lock lock(mu_);
  if (const auto it = cell_of_series_.find(raw); it != cell_of_series_.end()) {
    forgotten_.push_back(it->second);
    forgets_.add();
  }
}

std::size_t RollupTree::set_latest(Plane& plane, std::uint32_t slot,
                                  Latest value) {
  plane.latest[slot] = value;
  const auto up = plane.up[slot];
  if ((up >> 1) != kNoEntry) mark(plane, up >> 1);
  return up & kChildless;
}

void RollupTree::mark(Plane& plane, std::uint32_t entry) {
  plane.dirty[entry / 64] |= std::uint64_t{1} << (entry % 64);
}

RollupStat RollupTree::fold_entry(const Plane& plane, std::uint32_t entry) {
  const Fold& f = plane.folds[entry];
  RollupStat total = plane.latest[f.slot].stat();
  for (auto r = f.refs_begin; r != f.refs_end; ++r) {
    const auto ref = plane.refs[r];
    if ((ref & kLeafRef) != 0) {
      const Latest& leaf = plane.latest[ref & ~kLeafRef];
      if (leaf.t != kNoTime) total.fold(RollupStat::of_value(leaf.t, leaf.v));
    } else {
      total.fold(plane.total[ref]);
    }
  }
  return total;
}

std::size_t RollupTree::rebuild_layout(Plane& plane) {
  const auto n = static_cast<std::uint32_t>(plane.nodes.size());
  // Fold entries are the levels with children, deepest first (then in slot
  // order), so every child's entry precedes its parent's.
  std::vector<std::uint32_t> order;
  for (std::uint32_t slot = 0; slot < n; ++slot) {
    if (!plane.nodes[slot].children.empty()) order.push_back(slot);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return plane.nodes[a].depth > plane.nodes[b].depth;
                   });
  const auto entries = static_cast<std::uint32_t>(order.size());
  std::vector<std::uint32_t> entry_of(n, kNoEntry);
  plane.folds.assign(entries, Fold{});
  for (std::uint32_t e = 0; e < entries; ++e) {
    entry_of[order[e]] = e;
    plane.folds[e].slot = order[e];
  }
  plane.refs.clear();
  for (Fold& f : plane.folds) {
    const Node& node = plane.nodes[f.slot];
    f.parent = node.parent == kNoSlot ? kNoEntry : entry_of[node.parent];
    f.refs_begin = static_cast<std::uint32_t>(plane.refs.size());
    for (const auto child : node.children) {
      plane.refs.push_back(entry_of[child] == kNoEntry ? (child | kLeafRef)
                                                       : entry_of[child]);
    }
    f.refs_end = static_cast<std::uint32_t>(plane.refs.size());
  }
  for (std::uint32_t slot = 0; slot < n; ++slot) {
    const auto parent = plane.nodes[slot].parent;
    plane.up[slot] =
        entry_of[slot] != kNoEntry
            ? entry_of[slot] << 1
            : (parent == kNoSlot ? kNoEntry : entry_of[parent]) << 1 |
                  kChildless;
  }
  plane.dirty.assign((entries + 63) / 64, 0);
  // No level's value moved since the last tick, and a level's new children
  // are still empty, so a fresh fold reproduces every published stat.
  plane.total.assign(entries, RollupStat{});
  for (std::uint32_t e = 0; e < entries; ++e) {
    plane.total[e] = fold_entry(plane, e);
  }
  plane.grown = false;
  return entries;
}

void RollupTree::refold_marked(Plane& plane, RollupTickStats& out) {
  // Entries are deepest first and marks only ever move to a parent, which
  // has a higher entry, so one ascending pass folds every child before its
  // parent. Re-reading the word after each fold picks up a parent marked
  // in the same word; a parent in a later word is set before the pass gets
  // there.
  for (std::size_t w = 0; w < plane.dirty.size(); ++w) {
    auto& bits = plane.dirty[w];
    while (bits != 0) {
      const auto e = static_cast<std::uint32_t>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
      if (const auto parent = plane.folds[e].parent; parent != kNoEntry) {
        mark(plane, parent);
      }
      const RollupStat total = fold_entry(plane, e);
      ++out.recomputed;
      if (total == plane.total[e]) continue;
      plane.total[e] = total;
      ++out.changed;
    }
  }
}

RollupTickStats RollupTree::tick() {
  obs::Span span(tick_us_);
  RollupTickStats out;
  // Ticks must not overlap: a second flip would hand writers a retired
  // buffer this tick is still draining.
  std::scoped_lock tick_lock(tick_mu_);

  // Phase 1: retire every shard's write buffer — an O(1) epoch flip under
  // the shard lock. Writers carry on in the fresh buffer; the retired one
  // is exclusively ours to read lock-free in phase 3b (the flip's lock
  // hand-off orders their prior writes before our reads).
  std::vector<std::uint8_t> retired(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& sh = *shards_[i];
    std::scoped_lock lock(sh.mu);
    retired[i] = sh.epoch;
    sh.epoch ^= 1;
  }

  std::scoped_lock lock(mu_);

  // Phase 2: lay out the planes whose topology grew since the last tick.
  for (Plane& plane : planes_) {
    if (plane.grown) out.recomputed += rebuild_layout(plane);
  }

  // Phase 3a: retractions first. A forget already cleared its pending cell
  // in the write epoch, so any retired update for that cell raced the
  // forget and may apply in either order (same contract as before
  // double-buffering; single-threaded forget-then-tick always retracts).
  for (const auto cell : forgotten_) {
    const Cell& c = cells_[cell];
    Plane& plane = planes_[c.plane];
    if (plane.latest[c.slot].t != kNoTime) {
      // The retracted level's time resets too, so a later re-append at
      // any newer-than-kNoTime time re-admits the series.
      out.changed += set_latest(plane, c.slot, Latest{});
      ++out.forgotten;
    }
  }
  forgotten_.clear();

  // Phase 3b: apply the retired pending values straight from the shard
  // buffers (no copy), resetting each cell so the buffer is clean before
  // the next flip makes it the write target again. The strictly-newer
  // guard drops stale windows (all-rejected appends older than the
  // applied latest).
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& sh = *shards_[i];
    auto& pending = sh.pending[retired[i]];
    auto& dirty = sh.dirty[retired[i]];
    for (const auto cell : dirty) {
      Latest& p = pending[cell];
      if (p.t == kNoTime) continue;  // cleared by forget, or duplicate entry
      const Cell& c = cells_[cell];
      Plane& plane = planes_[c.plane];
      if (p.t > plane.latest[c.slot].t) {
        out.changed += set_latest(plane, c.slot, p);
        ++out.leaf_updates;
      }
      p.t = kNoTime;
    }
    dirty.clear();
  }
  updates_.add(out.leaf_updates);

  // Phase 4: re-fold the levels above every change, children first.
  for (Plane& plane : planes_) refold_marked(plane, out);
  recomputes_.add(out.recomputed);

  // Phase 5: version the result; materialization is deferred to the next
  // snapshot() call so sweeps don't build views nobody reads. (Version 0
  // always publishes so readers see interned planes even before data.)
  if (out.changed != 0 || out.forgotten != 0 || version_ == 0) {
    ++version_;
    snap_stale_.store(true, std::memory_order_release);
  }
  entries_.set(static_cast<double>(total_levels_));

  ticks_.add();
  span.finish();
  return out;
}

void RollupTree::publish_locked() const {
  auto snap = std::make_shared<RollupSnapshot>();
  snap->version_ = version_;
  snap->planes_.reserve(planes_.size());
  for (Plane& plane : planes_) {
    // The interning maps only change when a new component joins; share one
    // immutable copy across every snapshot until the next growth so the
    // per-version publish writes stats, not maps.
    if (plane.snap_slot_of_comp == nullptr) {
      plane.snap_slot_of_comp =
          std::make_shared<const std::vector<std::uint32_t>>(
              plane.slot_of_comp);
      std::vector<core::ComponentId> comps;
      comps.reserve(plane.nodes.size());
      for (const Node& n : plane.nodes) comps.push_back(n.comp);
      plane.snap_comp_of_slot =
          std::make_shared<const std::vector<core::ComponentId>>(
              std::move(comps));
    }
    RollupSnapshot::Plane sp;
    sp.metric = plane.metric;
    sp.slot_of_comp = plane.snap_slot_of_comp;
    sp.comp_of_slot = plane.snap_comp_of_slot;
    // One pass in slot order expands every level from its own value, then
    // the folded totals overwrite the levels with children. A level that
    // gained children after the last tick is not laid out yet; its stat
    // is still its own value, which is what the first pass wrote.
    sp.total.reserve(plane.latest.size());
    for (const Latest& l : plane.latest) sp.total.push_back(l.stat());
    for (std::size_t e = 0; e < plane.folds.size(); ++e) {
      sp.total[plane.folds[e].slot] = plane.total[e];
    }
    snap->planes_.push_back(std::move(sp));
  }
  // Keys view into the final planes_ strings — built only now, after the
  // vector stopped reallocating.
  for (std::uint32_t i = 0; i < snap->planes_.size(); ++i) {
    snap->plane_by_metric_.emplace(snap->planes_[i].metric, i);
  }
  snap_.store(std::move(snap), std::memory_order_release);
}

std::shared_ptr<const RollupSnapshot> RollupTree::snapshot() const {
  reads_.add();
  if (snap_stale_.load(std::memory_order_acquire)) {
    std::scoped_lock lock(mu_);
    // Double-checked: a racing reader may have materialized this version
    // already (mu_ also orders us after the tick that set the flag).
    if (snap_stale_.load(std::memory_order_relaxed)) {
      publish_locked();
      snap_stale_.store(false, std::memory_order_release);
    }
  }
  return snap_.load(std::memory_order_acquire);
}

void RollupTree::attach_to(obs::ObsRegistry& registry) const {
  registry.attach({"rollup.updates", "updates",
                   "Leaf latest-value updates applied at coalescing ticks"},
                  &updates_);
  registry.attach({"rollup.ticks", "ticks", "Coalescing merge ticks run"},
                  &ticks_);
  registry.attach({"rollup.recomputes", "levels",
                   "Levels with children re-folded at ticks"},
                  &recomputes_);
  registry.attach({"rollup.forgotten", "series",
                   "Series retracted from the tree (eviction / node churn)"},
                  &forgets_);
  registry.attach({"rollup.reads", "snapshots",
                   "Lock-free snapshot acquisitions by read paths"},
                  &reads_);
  registry.attach({"rollup.entries", "levels",
                   "Materialized (metric, component) levels in the tree"},
                  &entries_);
  registry.attach({"rollup.tick_us", "us", "Coalescing tick duration"},
                  &tick_us_);
}

}  // namespace hpcmon::rollup
