// Property test: under seeded random workloads — batched and single appends,
// cross-series arrival shuffling, retention eviction, series churn — every
// level of the RollupTree equals, BITWISE, a scatter-gather reference folded
// from the stores' latest values in the tree's contractual order (self, then
// children ascending by raw ComponentId). A threaded round drives concurrent
// shard appenders, ticks, and snapshot readers under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <thread>
#include <vector>

#include "core/registry.hpp"
#include "ingest/sharded_store.hpp"
#include "rollup/tree.hpp"
#include "sim/topology.hpp"
#include "store_evict.hpp"

namespace hpcmon::rollup {
namespace {

using core::ComponentId;
using core::Sample;
using core::SeriesId;

struct Workload {
  core::MetricRegistry reg;
  sim::Topology topo;
  std::vector<std::string> metrics = {"node.cpu_util", "node.temp_c",
                                      "node.power_w"};
  std::vector<SeriesId> series;              // every (metric, node) pair
  std::vector<core::TimePoint> next_time;    // per-series monotone clock
  std::vector<ComponentId> all_components;   // every rollup level to check

  explicit Workload(const sim::MachineShape& shape)
      : topo(reg, shape, sim::FabricKind::kDragonfly) {
    for (const auto& m : metrics) {
      for (int n = 0; n < topo.num_nodes(); ++n) {
        series.push_back(reg.series(m, topo.node(n)));
      }
    }
    next_time.assign(series.size(), 1);
    for (std::uint32_t c = 0; c < reg.component_count(); ++c) {
      all_components.push_back(ComponentId{c});
    }
  }
};

RollupStat reference(core::MetricRegistry& reg,
                     const ingest::ShardedTimeSeriesStore& store,
                     std::uint32_t metric, ComponentId comp) {
  RollupStat total;
  if (const auto lv = store.latest(reg.series(metric, comp))) {
    total = RollupStat::of_value(lv->time, lv->value);
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

/// Assert every (metric, component) level of the snapshot equals the
/// scatter-gather reference — including levels the tree has not interned
/// (those must have an empty reference).
void expect_tree_equals_scatter_gather(
    Workload& w, const ingest::ShardedTimeSeriesStore& store,
    const RollupSnapshot& snap) {
  for (const auto& metric : w.metrics) {
    const auto m = w.reg.find_metric(metric);
    ASSERT_TRUE(m.has_value());
    for (const auto comp : w.all_components) {
      const auto ref = reference(w.reg, store, *m, comp);
      const auto* got = snap.find(comp, metric);
      if (got == nullptr) {
        EXPECT_TRUE(ref.empty())
            << metric << "@" << w.reg.component(comp).name;
      } else {
        // RollupStat operator== compares doubles exactly: bitwise equality.
        EXPECT_EQ(*got, ref) << metric << "@" << w.reg.component(comp).name;
      }
    }
  }
}

TEST(RollupProperty, RandomWorkloadsMatchScatterGatherAtEveryLevel) {
  for (const std::uint64_t seed : {11u, 23u, 47u}) {
    std::mt19937_64 rng(seed);
    sim::MachineShape shape;
    shape.cabinets = 2;
    shape.chassis_per_cabinet = 2;
    shape.blades_per_chassis = 2;
    shape.nodes_per_blade = 2;  // 16 nodes x 3 metrics = 48 series
    Workload w(shape);
    // Tiny chunks so retention can fully drain a series' history mid-run.
    ingest::ShardedTimeSeriesStore store(/*shards=*/3, /*chunk_points=*/4);
    RollupTree tree(w.reg, {.shards = store.shard_count()});
    store.attach_rollup(&tree);

    std::uniform_real_distribution<double> value(-100.0, 100.0);
    core::TimePoint clock = 1;
    for (int round = 0; round < 40; ++round) {
      // Occasional retention pass FIRST (on last round's drained state):
      // when it empties a series the gone listener retracts it from the
      // tree, and everything appended below is newer than its old history,
      // so a retracted series only ever resurrects with store-accepted data.
      if (round % 7 == 6) {
        evict::sealed_before(
            store, clock - static_cast<core::TimePoint>(rng() % 20));
      }
      // A shuffled multi-series batch: per-series times stay strictly
      // increasing (the store's append contract) but arrival order across
      // series is scrambled, and some samples repeat a stale timestamp to
      // exercise the store-reject / tree-discard path.
      std::vector<Sample> batch;
      const int picks = 1 + static_cast<int>(rng() % 24);
      for (int i = 0; i < picks; ++i) {
        const auto si = rng() % w.series.size();
        core::TimePoint t;
        // Stale repeats only target series that still hold data: the store
        // rejects them against its persistent last_time, and the tree's
        // applied last_time (equal to the store's) discards them in kind. A
        // just-evicted series must not see one — its tree-side clock was
        // retracted, so only genuinely newer samples may resurrect it.
        if (rng() % 8 == 0 && w.next_time[si] > 2 &&
            store.latest(w.series[si]).has_value()) {
          t = static_cast<core::TimePoint>(rng() % (w.next_time[si] - 1)) + 1;
        } else {
          t = w.next_time[si] + static_cast<core::TimePoint>(rng() % 3);
          w.next_time[si] = t + 1;
          clock = std::max(clock, t);
        }
        batch.push_back({w.series[si], t, value(rng)});
      }
      std::shuffle(batch.begin(), batch.end(), rng);
      switch (rng() % 3) {
        case 0:
          store.append_batch(batch);
          break;
        case 1:
          for (const auto& s : batch) store.append(s);
          break;
        default: {
          // Series-major sorted runs, the shape WAL replay appends.
          std::stable_sort(batch.begin(), batch.end(),
                           [](const Sample& a, const Sample& b) {
                             return core::raw(a.series) < core::raw(b.series);
                           });
          std::size_t i = 0;
          while (i < batch.size()) {
            std::size_t j = i;
            while (j < batch.size() && batch[j].series == batch[i].series) ++j;
            std::vector<Sample> run(batch.begin() + i, batch.begin() + j);
            std::sort(run.begin(), run.end(),
                      [](const Sample& a, const Sample& b) {
                        return a.time < b.time;
                      });
            store.append_batch(run);
            i = j;
          }
        }
      }
      // Occasional retention pass; when it empties a series the gone
      // listener must retract it from the tree. Future appends are always
      // newer than the cutoff (per-series clocks only move forward).
      if (round % 7 == 6) {
        evict::sealed_before(
            store, clock - static_cast<core::TimePoint>(rng() % 20));
      }
      tree.tick();
      const auto snap = tree.snapshot();
      ASSERT_NE(snap, nullptr);
      expect_tree_equals_scatter_gather(w, store, *snap);
    }
    // Final full drain: evict everything, every level must empty out.
    evict::sealed_before(store, clock + 1000);
    tree.tick();
    const auto snap = tree.snapshot();
    expect_tree_equals_scatter_gather(w, store, *snap);
    store.attach_rollup(nullptr);
  }
}

// Threaded round: appenders race across shards while a reader spins on
// snapshot() and the main thread ticks. TSan checks the locking discipline;
// the final barrier + tick must still equal scatter-gather exactly.
TEST(RollupProperty, ConcurrentAppendersTickersAndReaders) {
  sim::MachineShape shape;
  shape.cabinets = 2;
  shape.chassis_per_cabinet = 1;
  shape.blades_per_chassis = 2;
  shape.nodes_per_blade = 2;
  Workload w(shape);
  ingest::ShardedTimeSeriesStore store(/*shards=*/4, /*chunk_points=*/8);
  RollupTree tree(w.reg, {.shards = store.shard_count()});
  store.attach_rollup(&tree);

  constexpr int kWriters = 4;
  constexpr int kRoundsPerWriter = 200;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  // Writers partition the series space so per-series times stay monotone.
  for (int wtr = 0; wtr < kWriters; ++wtr) {
    threads.emplace_back([&, wtr] {
      std::mt19937_64 rng(1000 + wtr);
      std::uniform_real_distribution<double> value(0.0, 1.0);
      for (int r = 0; r < kRoundsPerWriter; ++r) {
        std::vector<Sample> batch;
        for (std::size_t si = wtr; si < w.series.size(); si += kWriters) {
          batch.push_back({w.series[si], r + 1, value(rng)});
        }
        std::shuffle(batch.begin(), batch.end(), rng);
        store.append_batch(batch);
      }
    });
  }
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const auto snap = tree.snapshot();
      ASSERT_NE(snap, nullptr);
      EXPECT_GE(snap->version(), last);  // versions only move forward
      last = snap->version();
      if (const auto* sys = snap->find(w.topo.system(), "node.cpu_util")) {
        EXPECT_LE(sys->count,
                  static_cast<std::uint64_t>(w.topo.num_nodes()));
      }
    }
  });
  for (int i = 0; i < 50; ++i) {
    tree.tick();
    std::this_thread::yield();
  }
  for (auto& t : threads) t.join();
  tree.tick();  // drain everything the writers left pending
  stop.store(true, std::memory_order_release);
  reader.join();

  const auto snap = tree.snapshot();
  expect_tree_equals_scatter_gather(w, store, *snap);
  const auto* sys = snap->find(w.topo.system(), "node.cpu_util");
  ASSERT_NE(sys, nullptr);
  EXPECT_EQ(sys->count, static_cast<std::uint64_t>(w.topo.num_nodes()));
  store.attach_rollup(nullptr);
}

}  // namespace
}  // namespace hpcmon::rollup
