// Ablation: sharded ingest scaling — hpcmon::ingest vs the single-mutex
// TimeSeriesStore.
//
// The paper's scale numbers (Sec. II: Trinity ~19k nodes, target "1 Hz or
// faster full-system collection") make the ingest path the first bottleneck:
// one global store mutex serializes every producer. This bench quantifies
// what shard partitioning buys.
//
// Method. Container CI for this repo commonly pins the process to a single
// hardware thread (std::thread::hardware_concurrency() == 1), where a
// wall-clock "8 producer threads" run measures the scheduler, not the
// design. So, consistent with the repo's simulation-substitution
// methodology, the primary numbers come from a CALIBRATED MAKESPAN MODEL:
//   * every per-shard append cost and per-producer submit cost is REAL work,
//     measured with steady_clock on this machine;
//   * the modeled concurrent makespan is the classic bottleneck bound
//       makespan(S, P) = max( max_shard busy(S) , producer_work / P )
//     i.e. the slowest shard worker or the partitioned producer pool,
//     whichever saturates first. A single-mutex store is the S = 1 column:
//     all appends serialize behind one lock regardless of P.
// A real-threaded pipeline run is also executed and printed as a reference
// (it validates correctness and losslessness; its wall-clock speedup is only
// meaningful on multi-core hosts).
#include <array>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/rng.hpp"
#include "ingest/pipeline.hpp"
#include "ingest/sharded_store.hpp"

namespace hpcmon::bench {
namespace {

using core::Sample;
using core::SampleBatch;
using core::SeriesId;
using std::chrono::steady_clock;

constexpr std::uint32_t kSeries = 256;
constexpr int kSweeps = 1500;
constexpr std::size_t kChunkPoints = 512;

double seconds_since(steady_clock::time_point t0) {
  return std::chrono::duration<double>(steady_clock::now() - t0).count();
}

// Deterministic sweep workload: every sweep carries one sample per series.
std::vector<SampleBatch> make_sweeps() {
  std::vector<SampleBatch> sweeps;
  core::Rng rng(42);
  sweeps.reserve(kSweeps);
  for (int p = 0; p < kSweeps; ++p) {
    SampleBatch b;
    b.sweep_time = (p + 1) * core::kSecond;
    b.samples.reserve(kSeries);
    for (std::uint32_t s = 0; s < kSeries; ++s) {
      b.samples.push_back(
          {SeriesId{s}, b.sweep_time, 40.0 + rng.uniform(0.0, 20.0)});
    }
    sweeps.push_back(std::move(b));
  }
  return sweeps;
}

// Real per-shard append busy time: route the whole workload through a
// ShardedTimeSeriesStore's hash and time each shard's appends separately.
// Returns per-shard busy seconds (the S = 1 case is the single-mutex total).
std::vector<double> measure_shard_busy(const std::vector<SampleBatch>& sweeps,
                                       std::size_t shards) {
  ingest::ShardedTimeSeriesStore store(shards, kChunkPoints);
  // Partition in sweep order so per-series timestamps stay increasing.
  std::vector<std::vector<Sample>> streams(store.shard_count());
  for (const auto& b : sweeps) {
    for (const auto& s : b.samples) {
      streams[store.shard_of(s.series)].push_back(s);
    }
  }
  std::vector<double> busy(store.shard_count(), 0.0);
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const auto t0 = steady_clock::now();
    store.shard(i).append_batch(streams[i]);
    busy[i] = seconds_since(t0);
  }
  return busy;
}

// Real producer-side cost (partition + bounded-queue push), measured by
// submitting every sweep into a pipeline whose workers are not running and
// whose queues are large enough to never push back.
double measure_producer_work(const std::vector<SampleBatch>& sweeps) {
  ingest::ShardedTimeSeriesStore store(4, kChunkPoints);
  ingest::IngestPipeline pipe(
      store, {.queue_capacity = sweeps.size() + 1,
              .policy = ingest::OverloadPolicy::kReject});
  const auto t0 = steady_clock::now();
  for (const auto& b : sweeps) pipe.submit(b);
  return seconds_since(t0);
}

struct Modeled {
  double makespan_s = 0.0;
  double msamples_per_s = 0.0;
};

Modeled model(const std::vector<double>& busy, double producer_work,
              int producers, std::size_t total_samples) {
  double worst_shard = 0.0;
  for (double b : busy) worst_shard = std::max(worst_shard, b);
  Modeled m;
  m.makespan_s = std::max(worst_shard, producer_work / producers);
  m.msamples_per_s = total_samples / m.makespan_s / 1e6;
  return m;
}

}  // namespace
}  // namespace hpcmon::bench

int main(int argc, char** argv) {
  hpcmon::bench::json_init(argc, argv);
  using namespace hpcmon;
  using namespace hpcmon::bench;

  header("Ablation: sharded ingest scaling (hpcmon::ingest)",
         "Sec. II scale targets (full-system 1 Hz collection) + Table I "
         "transport-impact accounting");

  const auto sweeps = make_sweeps();
  const std::size_t total = static_cast<std::size_t>(kSweeps) * kSeries;
  std::printf(
      "\nWorkload: %d sweeps x %u series = %zu samples, chunk_points=%zu\n",
      kSweeps, kSeries, total, kChunkPoints);
  std::printf("hardware_concurrency=%u%s\n",
              std::thread::hardware_concurrency(),
              std::thread::hardware_concurrency() <= 2
                  ? "  (modeled makespan is the primary number; wall-clock "
                    "threading cannot speed up on this host)"
                  : "");

  // -- Calibration: real append + producer costs -----------------------------
  const double producer_work = measure_producer_work(sweeps);
  std::printf("\nCalibrated costs (real work, steady_clock):\n");
  std::printf("  producer partition+push total: %8.1f ms\n",
              producer_work * 1e3);
  const std::size_t shard_counts[] = {1, 2, 4, 8};
  std::vector<std::vector<double>> busy_by_cfg;
  for (const auto s : shard_counts) {
    auto busy = measure_shard_busy(sweeps, s);
    double sum = 0.0;
    double worst = 0.0;
    for (double b : busy) {
      sum += b;
      worst = std::max(worst, b);
    }
    std::printf("  %zu-shard append busy: total %8.1f ms, worst shard %8.1f ms\n",
                s, sum * 1e3, worst * 1e3);
    busy_by_cfg.push_back(std::move(busy));
  }

  // -- Modeled throughput matrix ---------------------------------------------
  std::printf("\nModeled ingest throughput, Msamples/s "
              "(makespan = max(worst shard, producer_work/P)):\n");
  std::printf("  %-10s", "shards\\P");
  const int producer_counts[] = {1, 2, 4, 8};
  for (int p : producer_counts) std::printf("  P=%-8d", p);
  std::printf("\n");
  double single_mutex_p8 = 0.0;
  double four_shard_p8 = 0.0;
  double eight_shard_p8 = 0.0;
  for (std::size_t i = 0; i < busy_by_cfg.size(); ++i) {
    std::printf("  %-10zu", shard_counts[i]);
    for (int p : producer_counts) {
      const auto m = model(busy_by_cfg[i], producer_work, p, total);
      std::printf("  %-10.2f", m.msamples_per_s);
      if (p == 8) {
        if (shard_counts[i] == 1) single_mutex_p8 = m.msamples_per_s;
        if (shard_counts[i] == 4) four_shard_p8 = m.msamples_per_s;
        if (shard_counts[i] == 8) eight_shard_p8 = m.msamples_per_s;
      }
    }
    std::printf("\n");
  }
  std::printf(
      "\n8 producers: 1 shard (single mutex) %.2f -> 4 shards %.2f "
      "(%.2fx) -> 8 shards %.2f (%.2fx)\n",
      single_mutex_p8, four_shard_p8, four_shard_p8 / single_mutex_p8,
      eight_shard_p8, eight_shard_p8 / single_mutex_p8);

  json_metric("ingest.single_mutex_p8_msps", single_mutex_p8);
  json_metric("ingest.four_shard_p8_msps", four_shard_p8);
  json_metric("ingest.eight_shard_p8_msps", eight_shard_p8);
  // Hardware-relative ratios for the CI regression gate (absolute Msps vary
  // by runner; ratios of same-run measurements do not).
  json_metric("ingest.four_shard_scaling_x", four_shard_p8 / single_mutex_p8);
  json_metric("ingest.eight_shard_scaling_x",
              eight_shard_p8 / single_mutex_p8);
  shape_check(four_shard_p8 >= 3.0 * single_mutex_p8,
              core::strformat(
                  "4-shard store @ 8 producers sustains >= 3x the "
                  "single-mutex store's modeled ingest throughput (%.2fx)",
                  four_shard_p8 / single_mutex_p8));
  shape_check(eight_shard_p8 >= four_shard_p8 * 0.9,
              "adding shards past the producer bound never hurts (8-shard "
              ">= ~4-shard)");

  // -- Samples/sec/core by shard count and priority class --------------------
  // Per-core throughput from the same real busy-time measurements: how many
  // samples one core's worth of shard-worker busy time encodes. Classes are
  // assigned like the stack's default policy (a sparse critical set, a bulk
  // tail, standard in between); each series has exactly one class, so
  // per-class streams keep per-series timestamps increasing.
  {
    const auto class_of = [](std::uint32_t s) {
      if (s % 16 == 0) return core::Priority::kCritical;
      if (s % 4 == 0) return core::Priority::kBulk;
      return core::Priority::kStandard;
    };
    const char* class_name[core::kPriorityClasses] = {"critical", "standard",
                                                      "bulk"};
    std::printf("\nEncode throughput per core, Ksamples/s/core "
                "(real append busy time, by class):\n");
    std::printf("  %-10s", "shards");
    for (const auto* n : class_name) std::printf("  %-10s", n);
    std::printf("  %-10s\n", "all");
    double s4_all_sps_core = 0.0;
    for (const auto s : shard_counts) {
      ingest::ShardedTimeSeriesStore store(s, kChunkPoints);
      // Partition per (shard, class) in sweep order.
      std::vector<std::array<std::vector<Sample>, core::kPriorityClasses>>
          streams(store.shard_count());
      std::array<std::size_t, core::kPriorityClasses> cls_samples{};
      for (const auto& b : sweeps) {
        for (const auto& smp : b.samples) {
          const auto cls = static_cast<std::size_t>(class_of(
              core::raw(smp.series)));
          streams[store.shard_of(smp.series)][cls].push_back(smp);
          ++cls_samples[cls];
        }
      }
      std::array<double, core::kPriorityClasses> cls_busy{};
      for (std::size_t i = 0; i < streams.size(); ++i) {
        for (std::size_t c = 0; c < core::kPriorityClasses; ++c) {
          if (streams[i][c].empty()) continue;
          const auto t0 = steady_clock::now();
          store.shard(i).append_batch(streams[i][c]);
          cls_busy[c] += seconds_since(t0);
        }
      }
      double all_busy = 0.0;
      std::printf("  %-10zu", s);
      for (std::size_t c = 0; c < core::kPriorityClasses; ++c) {
        all_busy += cls_busy[c];
        const double sps = cls_samples[c] / cls_busy[c];
        std::printf("  %-10.0f", sps / 1e3);
        json_metric(core::strformat("ingest.sps_core_s%zu_%s", s,
                                    class_name[c]),
                    sps);
      }
      const double all_sps = total / all_busy;
      std::printf("  %-10.0f\n", all_sps / 1e3);
      json_metric(core::strformat("ingest.sps_core_s%zu_all", s), all_sps);
      if (s == 4) s4_all_sps_core = all_sps;
    }
    shape_check(s4_all_sps_core >= 1e6,
                core::strformat("batched ingest encodes >= 1M samples/s per "
                                "core at 4 shards (%.2fM)",
                                s4_all_sps_core / 1e6));
  }

  // -- Real-threaded reference run -------------------------------------------
  {
    ingest::ShardedTimeSeriesStore store(4, kChunkPoints);
    ingest::IngestPipeline pipe(store, {.queue_capacity = 64,
                                        .policy =
                                            ingest::OverloadPolicy::kBlock});
    pipe.start();
    const auto t0 = steady_clock::now();
    std::vector<std::thread> producers;
    for (std::uint32_t p = 0; p < 8; ++p) {
      producers.emplace_back([&, p] {
        for (const auto& sweep : sweeps) {
          SampleBatch mine;
          mine.sweep_time = sweep.sweep_time;
          for (const auto& s : sweep.samples) {
            if (core::raw(s.series) % 8 == p) mine.samples.push_back(s);
          }
          pipe.submit(mine);
        }
      });
    }
    for (auto& t : producers) t.join();
    pipe.drain();
    const double wall = seconds_since(t0);
    const auto m = obs::snapshot_of(pipe);
    const auto accepted = m.counter("ingest.accepted_samples");
    std::printf(
        "\nReference (real threads, 8 producers, 4 shards, kBlock): "
        "%.1f ms wall, %.2f Msamples/s\n  accepted=%llu appends=%llu "
        "mean_batch=%.1f blocked=%llu\n",
        wall * 1e3, total / wall / 1e6,
        static_cast<unsigned long long>(accepted),
        static_cast<unsigned long long>(m.counter("ingest.appends")),
        m.histogram("ingest.batch_samples")->mean(),
        static_cast<unsigned long long>(m.counter("ingest.blocked_pushes")));
    shape_check(accepted == total,
                "threaded kBlock run is lossless: every sample accepted");
    shape_check(m.counter("ingest.dropped_samples") == 0 &&
                    m.counter("ingest.rejected_samples") == 0,
                "threaded kBlock run drops/rejects nothing");

    // Differential: the pipeline's sharded store answers queries exactly
    // like a single store fed the same sweeps synchronously.
    store::TimeSeriesStore reference(kChunkPoints);
    for (const auto& b : sweeps) reference.append_batch(b.samples);
    bool identical = true;
    for (std::uint32_t s = 0; s < kSeries && identical; ++s) {
      identical = reference.query_range(SeriesId{s}, {0, core::kDay}) ==
                  store.query_range(SeriesId{s}, {0, core::kDay});
    }
    shape_check(identical,
                "sharded+threaded ingest is query-identical to the "
                "single-store synchronous path (all 256 series)");
  }

  // -- Deterministic overload accounting -------------------------------------
  // Workers intentionally not started: queue occupancy is then static, so
  // every policy decision is exactly predictable and the counters must match
  // to the unit.
  {
    ingest::ShardedTimeSeriesStore store(1, kChunkPoints);
    ingest::IngestPipeline pipe(store, {.queue_capacity = 4,
                                        .policy =
                                            ingest::OverloadPolicy::kReject});
    for (int k = 0; k < 9; ++k) {
      SampleBatch b;
      b.sweep_time = (k + 1) * core::kSecond;
      b.samples.push_back({SeriesId{0}, b.sweep_time, 1.0});
      pipe.submit(b);
    }
    const auto m = obs::snapshot_of(pipe);
    shape_check(m.counter("ingest.enqueued_batches") == 4 &&
                    m.counter("ingest.rejected_batches") == 5 &&
                    m.counter("ingest.rejected_samples") == 5,
                "kReject with capacity 4 and 9 submits rejects exactly 5 "
                "(counters exact)");
  }
  {
    ingest::ShardedTimeSeriesStore store(1, kChunkPoints);
    ingest::IngestPipeline pipe(
        store, {.queue_capacity = 4,
                .policy = ingest::OverloadPolicy::kDropOldest});
    for (int k = 0; k < 9; ++k) {
      SampleBatch b;
      b.sweep_time = (k + 1) * core::kSecond;
      b.samples.push_back({SeriesId{0}, b.sweep_time, 1.0});
      pipe.submit(b);
    }
    const auto m = obs::snapshot_of(pipe);
    shape_check(m.counter("ingest.enqueued_batches") == 9 &&
                    m.counter("ingest.dropped_batches") == 5 &&
                    m.counter("ingest.dropped_samples") == 5,
                "kDropOldest with capacity 4 and 9 submits drops exactly the "
                "5 oldest (counters exact)");
  }

  return finish();
}
