// rollup::RollupTree unit tests: the reducer concept, latest-value fold
// semantics, incremental bottom-up recompute, snapshot immutability, and the
// membership-follows-retention regression (evict a series mid-run and the
// tree must keep matching a scatter-gather over the store's latest values).
#include "rollup/tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/registry.hpp"
#include "core/strings.hpp"
#include "ingest/sharded_store.hpp"
#include "obs/registry.hpp"
#include "rollup/reducer.hpp"
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
  // append_run feeds the tree its max-time sample too.
  std::vector<core::Sample> run = {{f.temp[0], 200, 41.0},
                                   {f.temp[0], 201, 43.0}};
  EXPECT_EQ(store.append_run(f.temp[0], run), 2u);
  tree.tick();
  EXPECT_EQ(store.rollup_aggregate(f.nodes[0], "node.temp_c",
                                   store::Agg::kLast),
            43.0);
  store.attach_rollup(nullptr);
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
