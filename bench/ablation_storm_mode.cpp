// Ablation: storm mode — priority-aware shedding + degradation controller
// vs the class-blind baseline, under an identical bulk-flood storm.
//
// The paper's recurring war story (Secs. III-IV) is a monitoring stack
// engineered for fair weather: the first full-system event floods the
// pipeline and the data operators need most — the critical health signal —
// is lost along with the bulk noise, because shedding is class-blind. This
// bench pours the same storm through three ingest configurations:
//
//   baseline    no priorities, no controller (the seed pipeline):
//               drop-oldest eviction is class-blind, so sweep sub-batches
//               carrying critical series are evicted like any other
//   priority    series priorities only: eviction spares critical at the
//               door, but nothing reduces inflow, so standard/bulk churn
//   storm-mode  priorities + DegradationController closing the loop from
//               the pipeline's own health metrics (the full tentpole)
//
// The measured quantity is store completeness per class after the run —
// what fraction of each class's offered samples can be queried back — plus
// the per-class shed/loss ledger and, for storm-mode, the controller's mode
// trace. The claims: the baseline loses critical samples; both
// priority-aware rows lose ZERO critical samples; storm-mode sheds bulk
// hardest (voluntarily, at the door) and returns to NORMAL after the storm.
#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/priority.hpp"
#include "ingest/pipeline.hpp"
#include "ingest/sharded_store.hpp"
#include "resilience/degradation.hpp"

namespace hpcmon::bench {
namespace {

using core::Priority;
using core::SampleBatch;
using core::SeriesId;

constexpr std::uint32_t kCritical = 8;     // ids [0, 8)
constexpr std::uint32_t kStandard = 64;    // ids [8, 72)
constexpr std::uint32_t kBulk = 512;       // ids [72, 584)
constexpr std::uint32_t kSeries = kCritical + kStandard + kBulk;
constexpr int kSweeps = 1000;
constexpr int kStormStart = 300;
constexpr int kStormEnd = 700;
constexpr int kFloodPerSweep = 16;  // extra bulk-only batches per storm sweep
constexpr std::size_t kShards = 2;
constexpr std::size_t kQueueCap = 8;  // tiny on purpose: the storm must bite

Priority class_of(SeriesId id) {
  const auto v = static_cast<std::uint32_t>(id);
  if (v < kCritical) return Priority::kCritical;
  if (v < kCritical + kStandard) return Priority::kStandard;
  return Priority::kBulk;
}

struct RunResult {
  obs::ObsSnapshot snap;  // the pipeline's ingest.* instruments at the end
  std::array<double, core::kPriorityClasses> stored_frac{};
  /// offered - queryable, per class. This is the config-independent loss
  /// measure: the baseline has no priority hook, so its by-class drop
  /// ledger attributes every loss to the standard class, but the store
  /// does not lie about which series are missing points.
  std::array<std::uint64_t, core::kPriorityClasses> lost_from_store{};
  std::string mode_trace;
  int transitions = 0;
  int max_mode = 0;
  core::DegradationMode final_mode = core::DegradationMode::kNormal;
};

// Pour the storm through one pipeline configuration. `with_priority` wires
// the class map into the door; `with_controller` closes the degradation
// loop from the pipeline's own metrics, exactly as MonitoringStack does.
RunResult run(bool with_priority, bool with_controller) {
  ingest::ShardedTimeSeriesStore store(kShards);
  ingest::IngestConfig cfg;
  cfg.queue_capacity = kQueueCap;
  cfg.policy = ingest::OverloadPolicy::kDropOldest;
  if (with_priority) cfg.priority_of = class_of;
  ingest::IngestPipeline pipe(store, cfg);

  resilience::DegradationController controller;
  resilience::HealthSignalAssembler assembler;
  RunResult r;
  if (with_controller) {
    controller.on_change([&](core::DegradationMode m) {
      pipe.set_mode(m);
      r.max_mode = std::max(r.max_mode, static_cast<int>(m));
      if (++r.transitions <= 8) {  // enough trace to see the shape
        r.mode_trace += r.mode_trace.empty() ? "" : " -> ";
        r.mode_trace += std::string(core::to_string(m));
      }
    });
  }

  pipe.start();
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    const core::TimePoint t = (sweep + 1) * core::kSecond;
    SampleBatch b;
    b.sweep_time = t;
    for (std::uint32_t s = 0; s < kSeries; ++s) {
      b.samples.push_back({SeriesId{s}, t, static_cast<double>(sweep)});
    }
    pipe.submit(b);
    if (sweep >= kStormStart && sweep < kStormEnd) {
      for (int f = 0; f < kFloodPerSweep; ++f) {
        SampleBatch flood;
        flood.sweep_time = t;
        for (std::uint32_t s = kCritical + kStandard; s < kSeries; ++s) {
          flood.samples.push_back(
              {SeriesId{s}, t + f + 1, static_cast<double>(f)});
        }
        pipe.submit(flood);
      }
    }
    if (with_controller) {
      // The stack's signal assembly, at pipeline scope: the cumulative
      // loss/shed counters (the controller uses the deltas) plus the live
      // queue fill, which only a stack exports (ingest.queue_fill).
      auto hs = assembler.assemble(obs::snapshot_of(pipe));
      std::size_t depth = 0;
      for (std::size_t i = 0; i < kShards; ++i) {
        depth = std::max(depth, pipe.queue_depth(i));
      }
      hs.queue_fill =
          static_cast<double>(depth) / static_cast<double>(kQueueCap);
      controller.evaluate(hs);
    }
  }
  pipe.drain();
  pipe.stop();

  r.snap = obs::snapshot_of(pipe);
  r.final_mode = controller.mode();
  // Store completeness per class: queried-back points / offered points.
  std::array<std::uint64_t, core::kPriorityClasses> offered{};
  std::array<std::uint64_t, core::kPriorityClasses> stored{};
  const core::TimeRange all{0, (kSweeps + 2) * core::kSecond};
  for (std::uint32_t s = 0; s < kSeries; ++s) {
    const auto cls = static_cast<std::size_t>(class_of(SeriesId{s}));
    std::uint64_t want = kSweeps;
    if (cls == static_cast<std::size_t>(Priority::kBulk)) {
      want += static_cast<std::uint64_t>(kStormEnd - kStormStart) *
              kFloodPerSweep;
    }
    offered[cls] += want;
    stored[cls] += store.query_range(SeriesId{s}, all).size();
  }
  for (std::size_t c = 0; c < core::kPriorityClasses; ++c) {
    r.stored_frac[c] = offered[c] == 0 ? 1.0
                                       : static_cast<double>(stored[c]) /
                                             static_cast<double>(offered[c]);
    r.lost_from_store[c] = offered[c] - std::min(offered[c], stored[c]);
  }
  return r;
}

void print_row(const char* label, const RunResult& r) {
  constexpr auto kCrit = static_cast<std::size_t>(Priority::kCritical);
  constexpr auto kStd = static_cast<std::size_t>(Priority::kStandard);
  constexpr auto kBlk = static_cast<std::size_t>(Priority::kBulk);
  const auto lost = [&r](const std::string& cls) {
    return static_cast<unsigned long long>(
        r.snap.counter("ingest.dropped_" + cls + "_samples") +
        r.snap.counter("ingest.rejected_" + cls + "_samples"));
  };
  std::printf(
      "  %-10s stored: crit %6.2f%%  std %6.2f%%  bulk %6.2f%%   "
      "lost: crit %llu / std %llu / bulk %llu   shed: std %llu / bulk %llu\n",
      label, 100.0 * r.stored_frac[kCrit], 100.0 * r.stored_frac[kStd],
      100.0 * r.stored_frac[kBlk], lost("critical"), lost("standard"),
      lost("bulk"),
      static_cast<unsigned long long>(
          r.snap.counter("ingest.shed_standard_samples")),
      static_cast<unsigned long long>(
          r.snap.counter("ingest.shed_bulk_samples")));
}

}  // namespace
}  // namespace hpcmon::bench

int main(int argc, char** argv) {
  hpcmon::bench::json_init(argc, argv);
  using namespace hpcmon::bench;
  using hpcmon::core::Priority;
  header("Ablation: storm mode — priority-aware degradation vs class-blind "
         "shedding",
         "Secs. III-IV (storms take out fair-weather monitoring); Table I "
         "(documented transport impact)");

  std::printf(
      "\nWorkload: %u critical / %u standard / %u bulk series, %d sweeps;\n"
      "bulk flood x%d during sweeps [%d, %d); %zu shards, queue cap %zu,\n"
      "drop_oldest. Identical storm for every row.\n\n",
      kCritical, kStandard, kBulk, kSweeps, kFloodPerSweep, kStormStart,
      kStormEnd, kShards, kQueueCap);

  const auto baseline = run(false, false);
  const auto priority = run(true, false);
  const auto storm = run(true, true);

  print_row("baseline", baseline);
  print_row("priority", priority);
  print_row("storm-mode", storm);
  std::printf(
      "\n  storm-mode controller: NORMAL -> %s%s\n"
      "  (%d transitions over the run — the bounded shed-hold probe "
      "oscillates slowly while the storm persists; max level %d, final "
      "%s)\n",
      storm.mode_trace.c_str(), storm.transitions > 8 ? " -> ..." : "",
      storm.transitions, storm.max_mode,
      std::string(hpcmon::core::to_string(storm.final_mode)).c_str());

  constexpr auto kCrit = static_cast<std::size_t>(Priority::kCritical);

  // Loss is judged from the store (offered minus queryable): the baseline
  // has no priority hook, so its by-class drop ledger cannot see which
  // classes it hurt — the store can.
  const auto crit_lost = [](const RunResult& r) {
    return r.lost_from_store[kCrit];
  };
  shape_check(crit_lost(baseline) > 0,
              "class-blind baseline loses critical samples in the storm");
  shape_check(crit_lost(priority) == 0 && priority.stored_frac[kCrit] == 1.0,
              "priority-aware door loses ZERO critical samples");
  shape_check(crit_lost(storm) == 0 && storm.stored_frac[kCrit] == 1.0,
              "storm mode (priority + controller) loses ZERO critical "
              "samples");
  shape_check(storm.max_mode >= 1,
              "the controller engaged during the storm (left NORMAL)");
  shape_check(storm.final_mode == hpcmon::core::DegradationMode::kNormal,
              "the controller returned to NORMAL after the storm");
  const auto shed_frac = [&storm](const std::string& cls) {
    const auto shed = storm.snap.counter("ingest.shed_" + cls + "_samples");
    return static_cast<double>(shed) /
           static_cast<double>(
               storm.snap.counter("ingest.submitted_" + cls + "_samples") +
               shed + 1);
  };
  const double storm_bulk_shed_frac = shed_frac("bulk");
  const double storm_std_shed_frac = shed_frac("standard");
  json_metric("storm.crit_lost_baseline",
              static_cast<double>(crit_lost(baseline)));
  json_metric("storm.bulk_shed_frac", storm_bulk_shed_frac);
  json_metric("storm.std_shed_frac", storm_std_shed_frac);
  shape_check(storm_bulk_shed_frac >= storm_std_shed_frac,
              "degradation sheds bulk at least as hard as standard");
  shape_check(storm.snap.counter("ingest.shed_critical_samples") == 0,
              "degradation never sheds critical at the door");

  return finish();
}
