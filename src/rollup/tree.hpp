// RollupTree: incremental hierarchical aggregation up the machine topology.
//
// The paper's headline products — Fig 3's per-cabinet power and Fig 1's
// system-wide utilization — are reductions over the node→blade→chassis→
// cabinet→system containment tree, yet every fleet-wide read used to
// scatter-gather tens of thousands of raw per-node series. The
// Hierarchical-monitors design (monitors chained up the topology, each
// reducing its children with a pluggable stat) points at the fix: maintain
// the reduction *incrementally at ingest*, so a topology-level read is
// O(depth), not O(nodes).
//
// Design (three planes of concurrency):
//   * HOT PATH — observe(shard, samples) folds each sample into a per-shard
//     pending-latest cell (one compare + store per sample, one per-shard
//     mutex, no cross-shard lock). The cells are double-buffered: the tick
//     flips each shard's write epoch in O(1) under the shard lock and
//     drains the retired buffer without it, so ingest never waits on the
//     merge. Rejected out-of-order appends are harmless by construction:
//     the store keeps per-series times strictly increasing, so the max-time
//     sample of a window IS the store's latest whenever any sample was
//     accepted, and the merge discards pending values older than the
//     level's applied last_time.
//   * COALESCING TICK — tick() drains the retired shard buffers and applies
//     them to each metric plane's slot-indexed latest values: one 16-byte
//     (t, v) pair per level's own series. A level with no children is never
//     re-folded, because its total is its own value. Only levels with
//     children (a plane's fold entries, stored deepest first) re-fold, each
//     reading its children through precomputed refs kept in
//     ascending-ComponentId order, so totals are re-folded fresh and float
//     sums are reproducible regardless of update history (the property
//     tests assert bitwise equality against scatter-gather). A tick marks
//     the entry each change feeds and re-folds the marked entries and their
//     ancestors: work in proportion to changes x depth. The fold layout is
//     rebuilt at the start of a tick, only for a plane whose topology grew
//     since the last one.
//   * READS — a changing tick bumps the published version; the immutable
//     RollupSnapshot itself materializes lazily at the next snapshot()
//     call (at most once per version), so sampling sweeps never pay for
//     views nobody reads. Materializing expands each childless level's
//     (t, v) pair into its RollupStat and copies the folded totals over.
//     Steady-state reads are a lock-free atomic shared_ptr load, and a
//     snapshot stays valid for as long as the reader holds it.
//
// Topology comes from the collector's component registry: the first sample
// of a series interns its component's whole parent chain
// (core::MetricRegistry containment), so anything with a parent — nodes,
// GPUs, routers, OSTs — rolls up without per-machine configuration.
//
// Membership follows retention: forget_series() (wired to the store's
// series-gone listener) retracts a fully-evicted series so its ancestors
// never serve stale last/min/max from deleted data.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/ids.hpp"
#include "core/registry.hpp"
#include "core/sample.hpp"
#include "core/time.hpp"
#include "obs/registry.hpp"
#include "rollup/reducer.hpp"
#include "store/summary.hpp"

namespace hpcmon::rollup {

struct RollupConfig {
  /// Number of independent delta domains; observe()'s shard index must be
  /// < shards. Matched to ShardedTimeSeriesStore::shard_count() when
  /// attached there; 1 for the synchronous store path.
  std::size_t shards = 1;
};

/// One immutable point-in-time view of every (metric, component) level.
/// Reads are plain lookups — no locks, no store queries.
class RollupSnapshot {
 public:
  /// The level's accumulator, or nullptr when the (metric, component) pair
  /// has never been touched. An interned-but-currently-empty level returns
  /// a stat with count == 0.
  const RollupStat* find(core::ComponentId comp, std::string_view metric) const;

  /// Reduce a level with the store/wire Agg enum; nullopt when absent/empty.
  std::optional<double> aggregate(core::ComponentId comp,
                                  std::string_view metric,
                                  store::Agg agg) const {
    const auto* s = find(comp, metric);
    return s ? reduce(*s, agg) : std::nullopt;
  }

  /// Reduce a level with any type satisfying the Reducer concept.
  template <Reducer R>
  std::optional<double> read(core::ComponentId comp,
                             std::string_view metric) const {
    const auto* s = find(comp, metric);
    if (s == nullptr || s->empty()) return std::nullopt;
    return R::reduce(*s);
  }

  /// Tick sequence number that published this snapshot (0 = pre-first-tick).
  std::uint64_t version() const { return version_; }
  /// Total (metric, component) levels materialized.
  std::size_t entry_count() const;
  /// Metric families with a plane in this snapshot.
  std::vector<std::string> metrics() const;
  /// Visit every (metric, component, stat) level — fleet tables, tests.
  void for_each(const std::function<void(std::string_view, core::ComponentId,
                                         const RollupStat&)>& fn) const;

 private:
  friend class RollupTree;

  struct Plane {
    std::string metric;
    // Shared with the tree's interning cache: rebuilt only when a new
    // component interns, so the per-tick publish copies stats, not maps.
    std::shared_ptr<const std::vector<std::uint32_t>> slot_of_comp;
    std::shared_ptr<const std::vector<core::ComponentId>> comp_of_slot;
    std::vector<RollupStat> total;
  };

  std::vector<Plane> planes_;
  // Keys view into planes_[i].metric; built only once planes_ is final.
  std::unordered_map<std::string_view, std::uint32_t> plane_by_metric_;
  std::uint64_t version_ = 0;
};

struct RollupTickStats {
  std::size_t leaf_updates = 0;  // pending cells applied to leaves
  std::size_t forgotten = 0;     // series retracted (eviction/churn)
  std::size_t recomputed = 0;    // levels with children re-folded
  std::size_t changed = 0;       // levels whose stat actually moved
};

class RollupTree {
 public:
  explicit RollupTree(const core::MetricRegistry& registry,
                      RollupConfig config = {});

  RollupTree(const RollupTree&) = delete;
  RollupTree& operator=(const RollupTree&) = delete;

  std::size_t shard_count() const { return shards_.size(); }

  /// Hot path: fold samples into shard `shard`'s pending-latest cells.
  /// Thread-safe; concurrent callers on distinct shards never contend.
  void observe(std::size_t shard, std::span<const core::Sample> samples);
  void observe(std::size_t shard, const core::Sample& s) {
    observe(shard, std::span<const core::Sample>(&s, 1));
  }

  /// Membership: retract a series that no longer holds data (evicted by
  /// retention, or a node that left the fleet). Takes effect at the next
  /// tick; any pending update for the series is discarded immediately.
  void forget_series(core::SeriesId id);

  /// Coalescing merge: drain shard deltas, re-fold the levels with children
  /// above each change, bump the published version (the snapshot itself
  /// materializes at the next snapshot() call).
  RollupTickStats tick();

  /// Read the current published view (empty before the first tick). The
  /// first read after a changing tick materializes the view under the tree
  /// lock; every later read is a lock-free atomic load. The snapshot is
  /// immutable; hold it as long as needed.
  std::shared_ptr<const RollupSnapshot> snapshot() const;

  /// Catalog the rollup.* instruments in `registry`.
  void attach_to(obs::ObsRegistry& registry) const;

 private:
  static constexpr std::uint32_t kUnresolved = 0;  // route states
  static constexpr std::uint32_t kIgnored = 1;
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  // Fold entries fit in 31 bits: a fold ref sets kLeafRef to name a
  // childless level's slot instead, and Plane::up shifts an entry left by
  // one to make room for kChildless.
  static constexpr std::uint32_t kNoEntry = 0x7FFFFFFFu;
  static constexpr std::uint32_t kLeafRef = 0x80000000u;
  static constexpr std::uint32_t kChildless = 1;
  static constexpr core::TimePoint kNoTime = RollupStat::kNoTime;

  /// A series' latest (t, v): a shard's pending cell, or a level's applied
  /// own value. An empty level value is (kNoTime, +0.0), so stat() expands
  /// it without a branch, bit for bit RollupStat{}.
  struct Latest {
    core::TimePoint t = kNoTime;
    double v = 0.0;

    RollupStat stat() const {
      RollupStat s;
      s.count = t != kNoTime ? 1 : 0;
      s.sum = s.min = s.max = s.last = v;
      s.last_time = t;
      return s;
    }
  };

  /// Topology: read when interning and when the fold layout is rebuilt,
  /// never by a tick's apply or fold.
  struct Node {
    std::uint32_t parent = kNoSlot;
    std::uint32_t depth = 0;
    core::ComponentId comp = core::kNoComponent;
    std::vector<std::uint32_t> children;  // sorted by raw ComponentId
  };

  /// One level with children. Entries are ordered deepest first, so every
  /// child entry precedes its parent.
  struct Fold {
    std::uint32_t slot = 0;           // the level; its own value is latest[slot]
    std::uint32_t parent = kNoEntry;  // the parent's fold entry
    std::uint32_t refs_begin = 0;     // children: refs[refs_begin, refs_end)
    std::uint32_t refs_end = 0;
  };

  struct Plane {
    std::string metric;
    std::vector<std::uint32_t> slot_of_comp;  // raw ComponentId -> slot+1
    std::vector<Node> nodes;
    bool grown = false;  // nodes interned since the fold layout was built
    // Slot-indexed, parallel to `nodes`.
    std::vector<Latest> latest;
    // The fold entry a change to latest[slot] marks, shifted left by one:
    // the level's own when it has children, else its parent's (kNoEntry for
    // a childless root), with kChildless set when the level has no entry.
    std::vector<std::uint32_t> up;
    // The fold layout, indexed by fold entry.
    std::vector<Fold> folds;
    std::vector<std::uint32_t> refs;  // slot | kLeafRef, or a fold entry
    std::vector<RollupStat> total;    // own value folded with every child's
    std::vector<std::uint64_t> dirty;  // one bit per marked fold entry
    // Lazily rebuilt snapshot views of the interning maps; invalidated by
    // intern_comp, shared by every snapshot published since the last growth.
    std::shared_ptr<const std::vector<std::uint32_t>> snap_slot_of_comp;
    std::shared_ptr<const std::vector<core::ComponentId>> snap_comp_of_slot;
  };

  /// A cell is one (plane, leaf slot) fed by exactly one series.
  struct Cell {
    std::uint32_t plane = 0;
    std::uint32_t slot = 0;
  };

  struct Shard {
    std::mutex mu;
    std::vector<std::uint32_t> route;  // raw SeriesId -> state or cell+2
    // Double-buffered pending windows: writers fill pending[epoch] /
    // dirty[epoch]; tick() flips the epoch in O(1) under `mu` and reads
    // the retired buffer with no lock held (writers can't touch it, and
    // the flip's lock hand-off orders their prior writes before the
    // drain). The drain resets the retired cells before the next flip
    // makes them the write target again.
    std::uint8_t epoch = 0;
    std::array<std::vector<Latest>, 2> pending;       // indexed by cell
    std::array<std::vector<std::uint32_t>, 2> dirty;  // cells filled
  };

  /// Intern the series' (metric plane, component chain) under mu_ and hand
  /// back its route value. Lock order is ALWAYS shard.mu -> mu_.
  std::uint32_t resolve_route(core::SeriesId id);
  std::uint32_t intern_plane(std::uint32_t metric_index);
  std::uint32_t intern_comp(std::uint32_t plane_idx, core::ComponentId comp);
  /// Lay out a grown plane's fold entries and refs, and fold every entry
  /// afresh. Returns the entries folded.
  static std::size_t rebuild_layout(Plane& plane);
  static RollupStat fold_entry(const Plane& plane, std::uint32_t entry);
  /// Store a level's own value, and mark the fold entry it feeds. Returns 1
  /// when the level is childless (no fold will count its change), else 0.
  static std::size_t set_latest(Plane& plane, std::uint32_t slot,
                                Latest value);
  static void mark(Plane& plane, std::uint32_t entry);
  /// Re-fold every marked entry and, through the parent links, every entry
  /// above it, children first, counting each and whether its total moved;
  /// clears the marks.
  static void refold_marked(Plane& plane, RollupTickStats& out);
  /// Materialize planes_ into a fresh snapshot and store it (mu_ held).
  void publish_locked() const;

  const core::MetricRegistry& registry_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::mutex tick_mu_;     // serializes ticks (epoch flips must not overlap)
  mutable std::mutex mu_;  // planes/cells/forgotten; never held across shard.mu
  // mutable: snapshot() materializes the lazily-published view (the
  // snap_* map caches and snap_ itself) under mu_ from const reads.
  mutable std::vector<Plane> planes_;
  std::unordered_map<std::uint32_t, std::uint32_t> plane_by_metric_;
  std::vector<Cell> cells_;
  std::unordered_map<std::uint32_t, std::uint32_t> cell_of_series_;
  std::vector<std::uint32_t> forgotten_;  // cells queued by forget_series
  std::uint64_t version_ = 0;
  std::size_t total_levels_ = 0;  // sum of plane.nodes sizes (entries gauge)

  mutable std::atomic<std::shared_ptr<const RollupSnapshot>> snap_;
  // True when version_ moved past snap_'s version; cleared by the reader
  // that materializes the fresh view.
  mutable std::atomic<bool> snap_stale_{false};

  // rollup.* instruments (attached to any registry via attach_to).
  obs::Counter updates_;
  obs::Counter ticks_;
  obs::Counter recomputes_;
  obs::Counter forgets_;
  mutable obs::Counter reads_;
  obs::Gauge entries_;
  obs::Histogram tick_us_;
};

}  // namespace hpcmon::rollup
