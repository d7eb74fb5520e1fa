// rollup::RollupTree unit tests: the reducer concept, latest-value fold
// semantics, incremental bottom-up recompute, snapshot immutability, and the
// membership-follows-retention regression (evict a series mid-run and the
// tree must keep matching a scatter-gather over the store's latest values).
#include "rollup/tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/registry.hpp"
#include "core/strings.hpp"
#include "ingest/sharded_store.hpp"
#include "obs/registry.hpp"
#include "rollup/reducer.hpp"
#include "sim/topology.hpp"
#include "store_evict.hpp"

namespace hpcmon::rollup {
namespace {

using core::ComponentId;
using core::ComponentKind;
using core::SeriesId;

/// The stat-plugin promise: a reducer nobody anticipated, no tree changes.
struct RangeReducer {
  static double reduce(const RollupStat& s) { return s.max - s.min; }
};
static_assert(Reducer<RangeReducer>);

/// A two-cabinet, two-nodes-per-cabinet hand-built containment tree.
struct SmallFleet {
  core::MetricRegistry reg;
  ComponentId system, cab0, cab1;
  ComponentId nodes[4];
  SeriesId temp[4];

  SmallFleet() {
    system = reg.register_component(
        {"system", ComponentKind::kSystem, core::kNoComponent});
    cab0 = reg.register_component({"c0-0", ComponentKind::kCabinet, system});
    cab1 = reg.register_component({"c1-0", ComponentKind::kCabinet, system});
    const ComponentId cabs[2] = {cab0, cab1};
    for (int i = 0; i < 4; ++i) {
      nodes[i] = reg.register_component(
          {core::strformat("c%d-0c0s0n%d", i / 2, i % 2),
           ComponentKind::kNode, cabs[i / 2]});
      temp[i] = reg.series("node.temp_c", nodes[i]);
    }
  }
};

/// Scatter-gather reference: fold self (the store's latest value for this
/// exact series), then children ascending by raw ComponentId — the same
/// deterministic order the tree contracts to, so equality is bitwise.
template <typename Store>
RollupStat reference(core::MetricRegistry& reg, const Store& store,
                     std::string_view metric, ComponentId comp) {
  RollupStat total;
  if (const auto m = reg.find_metric(metric)) {
    if (const auto lv = store.latest(reg.series(*m, comp))) {
      total = RollupStat::of_value(lv->time, lv->value);
    }
  }
  auto kids = reg.children_of(comp);
  std::sort(kids.begin(), kids.end(), [](ComponentId a, ComponentId b) {
    return core::raw(a) < core::raw(b);
  });
  for (const auto child : kids) {
    total.fold(reference(reg, store, metric, child));
  }
  return total;
}

/// Each series' latest value, as a tree driven without a store should hold
/// it: the reference's stand-in for a store.
struct LatestValues {
  std::map<SeriesId, core::TimedValue> values;

  void observe(RollupTree& tree, SeriesId id, core::TimePoint t, double v) {
    tree.observe(0, core::Sample{id, t, v});
    values[id] = {t, v};
  }
  void forget(RollupTree& tree, SeriesId id) {
    tree.forget_series(id);
    values.erase(id);
  }
  std::optional<core::TimedValue> latest(SeriesId id) const {
    const auto it = values.find(id);
    if (it == values.end()) return std::nullopt;
    return it->second;
  }
};

/// Every level of `metric` in `snap` equals the scatter-gather reference,
/// bit for bit; a level the tree never interned must be empty there.
template <typename Store>
void expect_levels_match(core::MetricRegistry& reg, const Store& store,
                         const RollupSnapshot& snap, std::string_view metric) {
  for (std::uint32_t c = 0; c < reg.component_count(); ++c) {
    const ComponentId comp{c};
    const auto ref = reference(reg, store, metric, comp);
    const auto* got = snap.find(comp, metric);
    if (got == nullptr) {
      EXPECT_TRUE(ref.empty()) << metric << "@" << reg.component(comp).name;
    } else {
      EXPECT_EQ(*got, ref) << metric << "@" << reg.component(comp).name;
    }
  }
}

/// The ancestors of `comp` (its parent chain up to the root).
std::set<std::uint32_t> ancestors(const core::MetricRegistry& reg,
                                  ComponentId comp) {
  std::set<std::uint32_t> out;
  for (auto c = reg.component(comp).parent; c != core::kNoComponent;
       c = reg.component(c).parent) {
    out.insert(core::raw(c));
  }
  return out;
}

TEST(RollupStatTest, FoldKeepsFirstValueOnLastTimeTies) {
  auto a = RollupStat::of_value(10, 1.0);
  a.fold(RollupStat::of_value(10, 2.0));  // tie: earlier-folded member wins
  EXPECT_EQ(a.last, 1.0);
  EXPECT_EQ(a.count, 2u);
  EXPECT_EQ(a.sum, 3.0);
  a.fold(RollupStat{});  // empty members are inert
  EXPECT_EQ(a.count, 2u);
  a.fold(RollupStat::of_value(11, -5.0));
  EXPECT_EQ(a.last, -5.0);
  EXPECT_EQ(a.min, -5.0);
  EXPECT_EQ(a.max, 2.0);
}

TEST(RollupStatTest, ReducersAndRuntimeDispatch) {
  auto s = RollupStat::of_value(5, 4.0);
  s.fold(RollupStat::of_value(6, 10.0));
  EXPECT_EQ(SumReducer::reduce(s), 14.0);
  EXPECT_EQ(MeanReducer::reduce(s), 7.0);
  EXPECT_EQ(MinReducer::reduce(s), 4.0);
  EXPECT_EQ(MaxReducer::reduce(s), 10.0);
  EXPECT_EQ(LastReducer::reduce(s), 10.0);
  EXPECT_EQ(CountReducer::reduce(s), 2.0);
  EXPECT_EQ(RangeReducer::reduce(s), 6.0);
  EXPECT_EQ(reduce(s, store::Agg::kMean), 7.0);
  EXPECT_EQ(reduce(RollupStat{}, store::Agg::kMean), std::nullopt);
}

TEST(RollupTreeTest, SnapshotIsNeverNullAndStartsEmpty) {
  SmallFleet f;
  RollupTree tree(f.reg);
  const auto snap = tree.snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version(), 0u);
  EXPECT_EQ(snap->entry_count(), 0u);
  EXPECT_EQ(snap->find(f.system, "node.temp_c"), nullptr);
}

TEST(RollupTreeTest, IncrementalHierarchicalAggregation) {
  SmallFleet f;
  RollupTree tree(f.reg);
  const double temps[4] = {40.0, 50.0, 60.0, 30.0};
  for (int i = 0; i < 4; ++i) {
    tree.observe(0, core::Sample{f.temp[i], 100 + i, temps[i]});
  }
  const auto stats = tree.tick();
  EXPECT_EQ(stats.leaf_updates, 4u);
  EXPECT_GT(stats.changed, 0u);

  const auto snap = tree.snapshot();
  EXPECT_EQ(snap->version(), 1u);
  const auto* sys = snap->find(f.system, "node.temp_c");
  ASSERT_NE(sys, nullptr);
  EXPECT_EQ(sys->count, 4u);
  EXPECT_EQ(sys->sum, 180.0);
  EXPECT_EQ(sys->min, 30.0);
  EXPECT_EQ(sys->max, 60.0);
  EXPECT_EQ(sys->last, 30.0);  // node 3 reported last (t=103)
  EXPECT_EQ(sys->last_time, 103);

  const auto* c0 = snap->find(f.cab0, "node.temp_c");
  ASSERT_NE(c0, nullptr);
  EXPECT_EQ(c0->count, 2u);
  EXPECT_EQ(c0->sum, 90.0);
  const auto* leaf = snap->find(f.nodes[2], "node.temp_c");
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->count, 1u);
  EXPECT_EQ(leaf->last, 60.0);

  // Reducer reads straight off the snapshot.
  EXPECT_EQ(snap->read<MeanReducer>(f.system, "node.temp_c"), 45.0);
  EXPECT_EQ(snap->read<RangeReducer>(f.cab1, "node.temp_c"), 30.0);
  EXPECT_EQ(snap->aggregate(f.cab0, "node.temp_c", store::Agg::kMax), 50.0);
  EXPECT_EQ(snap->read<MeanReducer>(f.system, "gpu.power_w"), std::nullopt);

  // One leaf moves: ancestors recompute, siblings' cabinets don't change,
  // and the previously published snapshot is immutable.
  tree.observe(0, core::Sample{f.temp[0], 200, 44.0});
  const auto stats2 = tree.tick();
  EXPECT_EQ(stats2.leaf_updates, 1u);
  const auto snap2 = tree.snapshot();
  EXPECT_EQ(snap2->version(), 2u);
  EXPECT_EQ(snap2->find(f.cab0, "node.temp_c")->sum, 94.0);
  EXPECT_EQ(snap2->find(f.cab1, "node.temp_c")->sum,
            snap->find(f.cab1, "node.temp_c")->sum);
  EXPECT_EQ(snap->find(f.cab0, "node.temp_c")->sum, 90.0);  // old view frozen
  EXPECT_EQ(sys->sum, 180.0);
}

TEST(RollupTreeTest, LatestValueSemanticsRejectStaleAndTiedUpdates) {
  SmallFleet f;
  RollupTree tree(f.reg);
  tree.observe(0, core::Sample{f.temp[0], 100, 1.0});
  tree.tick();
  // Older-than-applied and tied-with-applied updates are both discarded —
  // exactly the store's strictly-increasing append contract.
  tree.observe(0, core::Sample{f.temp[0], 99, 7.0});
  tree.observe(0, core::Sample{f.temp[0], 100, 7.0});
  const auto stats = tree.tick();
  EXPECT_EQ(stats.leaf_updates, 0u);
  EXPECT_EQ(tree.snapshot()->find(f.nodes[0], "node.temp_c")->last, 1.0);
  // Within one window, the max-time sample wins regardless of arrival order.
  tree.observe(0, core::Sample{f.temp[1], 300, 3.0});
  tree.observe(0, core::Sample{f.temp[1], 250, 9.0});
  tree.tick();
  const auto* leaf = tree.snapshot()->find(f.nodes[1], "node.temp_c");
  EXPECT_EQ(leaf->last, 3.0);
  EXPECT_EQ(leaf->last_time, 300);
}

TEST(RollupTreeTest, ForgetRetractsAndReobserveResurrects) {
  SmallFleet f;
  RollupTree tree(f.reg);
  for (int i = 0; i < 4; ++i) {
    tree.observe(0, core::Sample{f.temp[i], 10 + i, 1.0});
  }
  tree.tick();
  tree.forget_series(f.temp[3]);
  const auto stats = tree.tick();
  EXPECT_EQ(stats.forgotten, 1u);
  auto snap = tree.snapshot();
  EXPECT_EQ(snap->find(f.system, "node.temp_c")->count, 3u);
  EXPECT_TRUE(snap->find(f.nodes[3], "node.temp_c")->empty());
  EXPECT_EQ(snap->find(f.cab1, "node.temp_c")->count, 1u);
  // A later observation re-admits the series at any representable time.
  tree.observe(0, core::Sample{f.temp[3], 5, 2.0});
  tree.tick();
  snap = tree.snapshot();
  EXPECT_EQ(snap->find(f.system, "node.temp_c")->count, 4u);
  EXPECT_EQ(snap->find(f.nodes[3], "node.temp_c")->last, 2.0);
}

TEST(RollupTreeTest, ForgetBeatsPendingObservedBeforeIt) {
  SmallFleet f;
  RollupTree tree(f.reg);
  tree.observe(0, core::Sample{f.temp[0], 100, 1.0});
  tree.forget_series(f.temp[0]);  // clears the pending cell immediately
  EXPECT_EQ(tree.tick().leaf_updates, 0u);
  // The level was interned by the observe but never got a value.
  const auto* sys = tree.snapshot()->find(f.system, "node.temp_c");
  ASSERT_NE(sys, nullptr);
  EXPECT_TRUE(sys->empty());
  // ...but an observation AFTER the forget wins (it is newer information).
  tree.observe(0, core::Sample{f.temp[0], 100, 1.0});
  tree.forget_series(f.temp[0]);
  tree.observe(0, core::Sample{f.temp[0], 101, 2.0});
  tree.tick();
  EXPECT_EQ(tree.snapshot()->find(f.nodes[0], "node.temp_c")->last, 2.0);
}

// Satellite regression: rollup membership follows eviction. Evict one
// series' entire history mid-run and the tree must agree — bitwise — with a
// scatter-gather over the store's latest values at every level, both right
// after the retraction and after the series returns.
TEST(RollupTreeTest, EvictionMidRunKeepsTreeEqualToScatterGather) {
  SmallFleet f;
  // chunk_points = 4: eight appends seal two chunks and leave the head
  // empty, so eviction can fully empty a series (heads never evict).
  ingest::ShardedTimeSeriesStore store(/*shards=*/2, /*chunk_points=*/4);
  RollupTree tree(f.reg, {.shards = store.shard_count()});
  store.attach_rollup(&tree);

  // Node 0 gets history that will be entirely behind the cutoff; the others
  // keep a younger second chunk.
  for (int i = 0; i < 4; ++i) {
    for (int k = 0; k < 8; ++k) {
      const core::TimePoint t = (i == 0 || k < 4) ? (10 + k) : (1000 + k);
      ASSERT_TRUE(store.append(f.temp[i], t, 100.0 * i + k));
    }
  }
  tree.tick();
  const auto check_all_levels = [&] {
    const auto snap = tree.snapshot();
    for (const auto comp : {f.system, f.cab0, f.cab1, f.nodes[0], f.nodes[1],
                            f.nodes[2], f.nodes[3]}) {
      const auto ref = reference(f.reg, store, "node.temp_c", comp);
      const auto* got = snap->find(comp, "node.temp_c");
      if (got == nullptr) {
        EXPECT_TRUE(ref.empty()) << core::raw(comp);
      } else {
        EXPECT_EQ(*got, ref) << core::raw(comp);
      }
    }
  };
  check_all_levels();
  EXPECT_EQ(tree.snapshot()->find(f.system, "node.temp_c")->count, 4u);

  // Retention pass: everything older than t=500 goes. Node 0's series is
  // now empty, fires the gone listener, and must leave the rollup.
  evict::sealed_before(store, 500);
  // Mid-run churn: node 1 reports again between the eviction and the tick.
  ASSERT_TRUE(store.append(f.temp[1], 2000, 55.0));
  tree.tick();
  check_all_levels();
  const auto* sys = tree.snapshot()->find(f.system, "node.temp_c");
  EXPECT_EQ(sys->count, 3u);
  EXPECT_EQ(sys->last, 55.0);

  // The evicted node comes back (times keep increasing past its old data).
  ASSERT_TRUE(store.append(f.temp[0], 3000, 42.0));
  tree.tick();
  check_all_levels();
  EXPECT_EQ(tree.snapshot()->find(f.system, "node.temp_c")->count, 4u);

  store.attach_rollup(nullptr);  // detach before the tree dies
}

TEST(RollupTreeTest, ShardedRollupAggregateAnswersFromTree) {
  SmallFleet f;
  ingest::ShardedTimeSeriesStore store(2);
  EXPECT_EQ(store.rollup_aggregate(f.system, "node.temp_c", store::Agg::kMean),
            std::nullopt);  // no tree attached
  RollupTree tree(f.reg, {.shards = store.shard_count()});
  store.attach_rollup(&tree);
  const double temps[4] = {40.0, 50.0, 60.0, 30.0};
  std::vector<core::Sample> batch;
  for (int i = 0; i < 4; ++i) batch.push_back({f.temp[i], 100, temps[i]});
  EXPECT_EQ(store.append_batch(batch), 4u);
  tree.tick();
  EXPECT_EQ(store.rollup_aggregate(f.system, "node.temp_c", store::Agg::kMean),
            45.0);
  EXPECT_EQ(store.rollup_aggregate(f.cab1, "node.temp_c", store::Agg::kMin),
            30.0);
  EXPECT_EQ(store.rollup_aggregate(f.cab1, "nope", store::Agg::kMin),
            std::nullopt);
  store.attach_rollup(nullptr);
}

// The fold layout is rebuilt when a plane's topology grows after the first
// tick: a new node, a new plane, and a childless level (node 0, which has
// its own series) gaining a child of the same metric.
TEST(RollupTreeTest, TopologyGrowthAfterTheFirstTickMatchesScatterGather) {
  SmallFleet f;
  RollupTree tree(f.reg);
  LatestValues live;
  for (int i = 0; i < 4; ++i) live.observe(tree, f.temp[i], 10, 40.0 + i);
  tree.tick();
  expect_levels_match(f.reg, live, *tree.snapshot(), "node.temp_c");

  const auto n4 = f.reg.register_component(
      {"c1-0c0s0n2", ComponentKind::kNode, f.cab1});
  const auto gpu = f.reg.register_component(
      {"c0-0c0s0n0g0", ComponentKind::kGpu, f.nodes[0]});
  live.observe(tree, f.reg.series("node.temp_c", n4), 11, 33.5);
  live.observe(tree, f.reg.series("node.temp_c", gpu), 11, 71.25);
  live.observe(tree, f.reg.series("node.power_w", f.nodes[1]), 11, 350.0);
  live.observe(tree, f.temp[2], 11, 52.0);
  tree.tick();
  auto snap = tree.snapshot();
  expect_levels_match(f.reg, live, *snap, "node.temp_c");
  expect_levels_match(f.reg, live, *snap, "node.power_w");
  // Node 0 folds its own value with its new child's.
  EXPECT_EQ(snap->find(f.nodes[0], "node.temp_c")->count, 2u);
  EXPECT_EQ(snap->find(f.system, "node.temp_c")->count, 6u);

  // Later ticks fold through the rebuilt layout.
  live.observe(tree, f.temp[0], 12, 39.0);
  live.observe(tree, f.reg.series("node.temp_c", gpu), 12, 72.0);
  tree.tick();
  snap = tree.snapshot();
  expect_levels_match(f.reg, live, *snap, "node.temp_c");
  expect_levels_match(f.reg, live, *snap, "node.power_w");
}

// A plane whose only level is a root with its own series, like the
// facility metrics: nothing folds, and the level is its own value.
TEST(RollupTreeTest, ARootOnlyPlaneIsItsOwnValue) {
  SmallFleet f;
  RollupTree tree(f.reg);
  LatestValues live;
  const auto facility = f.reg.series("facility.power_kw", f.system);
  live.observe(tree, facility, 5, 1200.0);
  live.observe(tree, f.temp[1], 5, 45.0);
  const auto stats = tree.tick();
  EXPECT_EQ(stats.changed, 4u);  // the facility level, node 1, cab 0, system
  auto snap = tree.snapshot();
  expect_levels_match(f.reg, live, *snap, "facility.power_kw");
  expect_levels_match(f.reg, live, *snap, "node.temp_c");
  EXPECT_EQ(*snap->find(f.system, "facility.power_kw"),
            RollupStat::of_value(5, 1200.0));

  live.observe(tree, facility, 6, 1250.0);
  EXPECT_EQ(tree.tick().recomputed, 0u);
  EXPECT_EQ(tree.snapshot()->find(f.system, "facility.power_kw")->last,
            1250.0);
  live.forget(tree, facility);
  EXPECT_EQ(tree.tick().forgotten, 1u);
  snap = tree.snapshot();
  expect_levels_match(f.reg, live, *snap, "facility.power_kw");
  EXPECT_TRUE(snap->find(f.system, "facility.power_kw")->empty());
}

// A tick in which one leaf moves re-folds exactly that leaf's ancestors and
// leaves every other level as it was, however large the tree; k moved
// leaves re-fold the union of their ancestors, at most k x depth.
TEST(RollupTreeTest, SparseTicksRefoldOnlyTheAncestorsOfTheirChanges) {
  for (const int cabinets : {2, 8}) {
    core::MetricRegistry reg;
    sim::MachineShape shape;
    shape.cabinets = cabinets;
    shape.chassis_per_cabinet = 2;
    shape.blades_per_chassis = 4;
    shape.nodes_per_blade = 4;
    sim::Topology topo(reg, shape, sim::FabricKind::kDragonfly);
    RollupTree tree(reg);
    LatestValues live;
    std::vector<SeriesId> temp;
    for (int n = 0; n < topo.num_nodes(); ++n) {
      temp.push_back(reg.series("node.temp_c", topo.node(n)));
      live.observe(tree, temp.back(), 1, 20.0 + n);
    }
    tree.tick();
    const auto before = tree.snapshot();

    const int node = topo.num_nodes() / 3;
    live.observe(tree, temp[node], 2, -7.5);
    const auto one = tree.tick();
    const auto up = ancestors(reg, topo.node(node));
    EXPECT_EQ(one.leaf_updates, 1u);
    EXPECT_EQ(one.recomputed, up.size()) << cabinets << " cabinets";
    const auto after = tree.snapshot();
    expect_levels_match(reg, live, *after, "node.temp_c");
    after->for_each([&](std::string_view metric, ComponentId comp,
                        const RollupStat& stat) {
      if (comp == topo.node(node) || up.count(core::raw(comp)) != 0) return;
      EXPECT_EQ(stat, *before->find(comp, metric)) << reg.component(comp).name;
    });

    for (const int k : {2, 5, 9}) {
      std::set<std::uint32_t> levels;
      for (int i = 0; i < k; ++i) {
        const int n = (i * 7) % topo.num_nodes();
        live.observe(tree, temp[n], 3 + k, 1.0 * i);
        const auto a = ancestors(reg, topo.node(n));
        levels.insert(a.begin(), a.end());
      }
      const auto stats = tree.tick();
      EXPECT_EQ(stats.recomputed, levels.size());
      EXPECT_LE(stats.recomputed, static_cast<std::size_t>(k) * up.size());
      expect_levels_match(reg, live, *tree.snapshot(), "node.temp_c");
    }

    // When half the series report, every level with children is an
    // ancestor of a change: each is re-folded once, and still matches.
    std::set<std::uint32_t> with_children;
    for (int n = 0; n < topo.num_nodes(); ++n) {
      if (n % 2 == 0) live.observe(tree, temp[n], 50, 0.5 * n);
      const auto a = ancestors(reg, topo.node(n));
      with_children.insert(a.begin(), a.end());
    }
    EXPECT_EQ(tree.tick().recomputed, with_children.size());
    expect_levels_match(reg, live, *tree.snapshot(), "node.temp_c");
  }
}

// A forget and a layout rebuild in the same tick, then the series returns.
TEST(RollupTreeTest, ForgetAndReobserveAcrossALayoutRebuild) {
  SmallFleet f;
  RollupTree tree(f.reg);
  LatestValues live;
  for (int i = 0; i < 4; ++i) live.observe(tree, f.temp[i], 10 + i, 1.0 + i);
  tree.tick();

  live.forget(tree, f.temp[3]);
  const auto n4 = f.reg.register_component(
      {"c1-0c0s0n2", ComponentKind::kNode, f.cab1});
  live.observe(tree, f.reg.series("node.temp_c", n4), 20, 9.0);
  const auto stats = tree.tick();
  EXPECT_EQ(stats.forgotten, 1u);
  auto snap = tree.snapshot();
  expect_levels_match(f.reg, live, *snap, "node.temp_c");
  EXPECT_TRUE(snap->find(f.nodes[3], "node.temp_c")->empty());
  EXPECT_EQ(snap->find(f.cab1, "node.temp_c")->count, 2u);

  live.observe(tree, f.temp[3], 21, 4.5);
  tree.tick();
  snap = tree.snapshot();
  expect_levels_match(f.reg, live, *snap, "node.temp_c");
  EXPECT_EQ(snap->find(f.system, "node.temp_c")->count, 5u);
}

TEST(RollupTreeTest, ObsInstrumentsCountTheWork) {
  SmallFleet f;
  RollupTree tree(f.reg);
  obs::ObsRegistry obs;
  tree.attach_to(obs);
  tree.observe(0, core::Sample{f.temp[0], 1, 1.0});
  tree.tick();
  (void)tree.snapshot();
  tree.forget_series(f.temp[0]);
  tree.tick();
  const auto snap = obs.snapshot();
  EXPECT_EQ(snap.counter("rollup.ticks"), 2u);
  EXPECT_EQ(snap.counter("rollup.updates"), 1u);
  EXPECT_EQ(snap.counter("rollup.forgotten"), 1u);
  EXPECT_GT(snap.counter("rollup.reads"), 0u);
  EXPECT_GT(snap.counter("rollup.recomputes"), 0u);
}

}  // namespace
}  // namespace hpcmon::rollup
