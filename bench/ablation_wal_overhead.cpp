// Ablation: write-ahead-log overhead on the ingest path.
//
// The WAL buys crash recovery (Sec. IV: stores must be dependable across
// restarts) at the cost of one CRC + fwrite + fflush per sample frame,
// serialized ahead of the store append. This bench bounds that cost: the
// same deterministic sweep workload is appended (a) straight into the hot
// store, (b) through the WAL first, and (c) through the WAL with small
// segments so rotation churns. The claim to check is not "the WAL is free"
// but "durability costs a bounded constant factor on the append path, and
// replay restores every record" — the trade a site accepts knowingly.
// A further section times the record CRC itself over the same 1000
// payloads: the byte-at-a-time oracle (tests/reference_crc32.hpp), the
// portable slicing-by-8 kernel (core::crc32_portable, gated as
// wal.crc_speedup_x) and the kernel core::crc32 dispatches to on this CPU
// (PCLMULQDQ folding where available, reported as
// wal.crc_dispatch_speedup_x). The last one sizes the records: the writer
// transcodes each fixed-width frame to the compact layout, and
// wal.record_compaction_x (gated) is the fixed-width record bytes over the
// bytes the WAL stored. It is deterministic: uniform random values keep
// about seven XOR bytes a sample, so it reads near 2.5x here, against ~10x
// on e2ebench's fleet, whose values mostly repeat. The transcode's rate is
// printed beside it.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "../tests/reference_crc32.hpp"  // original byte-at-a-time CRC
#include "../tests/reference_sample_codec.hpp"  // the compact layout, plainly
#include "bench_common.hpp"
#include "core/crc32.hpp"
#include "core/rng.hpp"
#include "resilience/wal.hpp"
#include "store/tsdb.hpp"

namespace hpcmon::bench {
namespace {

using core::Sample;
using core::SampleBatch;
using core::SeriesId;
using std::chrono::steady_clock;

constexpr std::uint32_t kSeries = 256;
constexpr int kSweeps = 1000;
constexpr std::size_t kChunkPoints = 512;

double seconds_since(steady_clock::time_point t0) {
  return std::chrono::duration<double>(steady_clock::now() - t0).count();
}

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

double run_store_only(const std::vector<SampleBatch>& sweeps) {
  store::TimeSeriesStore store(kChunkPoints);
  const auto t0 = steady_clock::now();
  for (const auto& b : sweeps) store.append_batch(b.samples);
  return seconds_since(t0);
}

double run_with_wal(const std::vector<SampleBatch>& sweeps,
                    std::size_t segment_bytes,
                    obs::ObsSnapshot* stats_out) {
  const std::string dir = "/tmp/hpcmon_bench_wal";
  std::filesystem::remove_all(dir);
  store::TimeSeriesStore store(kChunkPoints);
  resilience::WriteAheadLog wal({.dir = dir, .segment_bytes = segment_bytes});
  const auto t0 = steady_clock::now();
  for (const auto& b : sweeps) {
    wal.append(transport::encode_samples(b));
    store.append_batch(b.samples);
  }
  const double secs = seconds_since(t0);
  if (stats_out != nullptr) *stats_out = obs::snapshot_of(wal);
  return secs;
}

/// Seconds for `reps` passes of `crc` over every payload; `sum` folds the
/// checksums so the loop cannot be elided and the two CRCs can be compared.
template <typename Crc>
double time_crc(const std::vector<transport::Frame>& frames, int reps,
                Crc crc, std::uint64_t& sum) {
  const auto t0 = steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    for (const auto& f : frames) sum += crc(f.payload.data(), f.payload.size());
  }
  return seconds_since(t0);
}

}  // namespace
}  // namespace hpcmon::bench

int main(int argc, char** argv) {
  hpcmon::bench::json_init(argc, argv);
  using namespace hpcmon::bench;
  header("Ablation: WAL overhead on the append path",
         "Sec. IV / Table I Data Storage — dependable ('always on') stores");

  const auto sweeps = make_sweeps();
  const std::size_t total_samples =
      static_cast<std::size_t>(kSweeps) * kSeries;
  std::printf("workload: %d sweeps x %u series = %zu samples\n\n", kSweeps,
              kSeries, total_samples);

  // Warm-up pass absorbs first-touch costs, then measure.
  run_store_only(sweeps);
  const double base = run_store_only(sweeps);
  hpcmon::obs::ObsSnapshot wal_stats;
  const double walled = run_with_wal(sweeps, 1u << 20, &wal_stats);
  hpcmon::obs::ObsSnapshot churn_stats;
  const double churned = run_with_wal(sweeps, 16u << 10, &churn_stats);

  const double overhead = walled / base;
  const double churn_overhead = churned / base;
  std::printf("store only        : %8.3f ms  (%5.1f Msamples/s)\n",
              base * 1e3, total_samples / base / 1e6);
  std::printf("wal + store (1MiB): %8.3f ms  overhead x%.2f, %llu segs\n",
              walled * 1e3, overhead,
              static_cast<unsigned long long>(
                  wal_stats.counter("resilience.wal_segments_created")));
  std::printf("wal + store (16KiB): %7.3f ms  overhead x%.2f, %llu segs\n",
              churned * 1e3, churn_overhead,
              static_cast<unsigned long long>(
                  churn_stats.counter("resilience.wal_segments_created")));

  // Replay the churned log and confirm nothing was lost.
  std::size_t replayed = 0;
  const auto rs = hpcmon::resilience::WriteAheadLog::replay(
      "/tmp/hpcmon_bench_wal",
      [&](hpcmon::core::SampleBatch&& b) { replayed += b.size(); });
  std::printf("replay            : %llu records, %zu samples, %s\n\n",
              static_cast<unsigned long long>(rs.records), replayed,
              rs.to_string().c_str());

  shape_check(wal_stats.counter("resilience.wal_records") ==
                  static_cast<std::uint64_t>(kSweeps),
              "every sweep frame is WAL-appended before the store append");
  shape_check(rs.records == static_cast<std::uint64_t>(kSweeps) &&
                  replayed == total_samples,
              "replay restores every appended record and sample");
  // Generous bound: fwrite+fflush per 256-sample batch amortizes well; a
  // durable append path should stay within an order of magnitude of the
  // bare in-memory append, and typically far closer.
  json_metric("wal.append_overhead_x", overhead);
  json_metric("wal.churn_vs_walled_x", churned / walled);
  shape_check(overhead < 10.0,
              "WAL durability costs < 10x the bare hot-tier append");
  shape_check(churned < walled * 8.0,
              "aggressive 16KiB segment rotation does not blow up the cost");
  std::filesystem::remove_all("/tmp/hpcmon_bench_wal");

  // The record CRC on its own, over the payloads the WAL just logged.
  std::vector<hpcmon::transport::Frame> frames;
  frames.reserve(sweeps.size());
  bool portable_equal = true;
  bool dispatched_equal = true;
  for (const auto& b : sweeps) {
    frames.push_back(hpcmon::transport::encode_samples(b));
    const auto& p = frames.back().payload;
    const auto want = hpcmon::refcrc::crc32(p.data(), p.size());
    portable_equal = portable_equal &&
                     hpcmon::core::crc32_portable(p.data(), p.size()) == want;
    dispatched_equal =
        dispatched_equal && hpcmon::core::crc32(p.data(), p.size()) == want;
  }
  constexpr int kCrcReps = 5;
  std::uint64_t ref_sum = 0;
  std::uint64_t portable_sum = 0;
  std::uint64_t dispatched_sum = 0;
  const auto ref_crc = [](const void* p, std::size_t n) {
    return hpcmon::refcrc::crc32(p, n);
  };
  const auto portable_crc = [](const void* p, std::size_t n) {
    return hpcmon::core::crc32_portable(p, n);
  };
  const auto dispatched_crc = [](const void* p, std::size_t n) {
    return hpcmon::core::crc32(p, n);
  };
  std::uint64_t warm_sum = 0;
  time_crc(frames, 1, portable_crc, warm_sum);  // warm-up
  time_crc(frames, 1, dispatched_crc, warm_sum);
  const double t_ref = time_crc(frames, kCrcReps, ref_crc, ref_sum);
  const double t_portable =
      time_crc(frames, kCrcReps, portable_crc, portable_sum);
  const double t_dispatched =
      time_crc(frames, kCrcReps, dispatched_crc, dispatched_sum);
  const double crc_x = t_ref / t_portable;
  const double dispatch_x = t_ref / t_dispatched;
  const double mib = kCrcReps * static_cast<double>(frames.size()) *
                     frames.front().payload.size() / (1 << 20);
  std::printf("record CRC, %zu payloads x %d reps (%.1f MiB):\n",
              frames.size(), kCrcReps, mib);
  std::printf("  byte-at-a-time %7.2f ms\n", t_ref * 1e3);
  std::printf("  slicing-by-8   %7.2f ms (%.1fx, %.0f MiB/s)\n",
              t_portable * 1e3, crc_x, mib / t_portable);
  std::printf("  dispatched     %7.2f ms (%.1fx, %.0f MiB/s)\n\n",
              t_dispatched * 1e3, dispatch_x, mib / t_dispatched);
  json_metric("wal.crc_speedup_x", crc_x);
  json_metric("wal.crc_dispatch_speedup_x", dispatch_x);
  shape_check(portable_equal && ref_sum == portable_sum,
              "slicing-by-8 CRC equals the byte-at-a-time oracle on every "
              "WAL payload");
  shape_check(dispatched_equal && ref_sum == dispatched_sum,
              "dispatched CRC equals the byte-at-a-time oracle on every WAL "
              "payload");
  shape_check(crc_x >= 2.0,
              hpcmon::core::strformat("slicing-by-8 CRC is >= 2x the "
                                      "byte-at-a-time loop (%.1fx)",
                                      crc_x));

  // The record transcode: each frame to the compact layout, into one
  // reused buffer, as the WAL's writer does it.
  std::vector<std::uint8_t> record(
      hpcmon::transport::compact_samples_bound(kSeries));
  bool oracle_equal = true;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    hpcmon::core::TimePoint newest = 0;
    const std::size_t n = hpcmon::transport::compact_samples(
        frames[i].payload.data(), record.data(), newest);
    oracle_equal = oracle_equal &&
                   std::vector<std::uint8_t>(record.begin(),
                                             record.begin() + n) ==
                       hpcmon::refsample::encode(sweeps[i]);
  }
  std::size_t compact_sum = 0;
  const auto t0 = steady_clock::now();
  for (int r = 0; r < kCrcReps; ++r) {
    for (const auto& f : frames) {
      hpcmon::core::TimePoint newest = 0;
      compact_sum += hpcmon::transport::compact_samples(f.payload.data(),
                                                        record.data(), newest);
    }
  }
  const double t_compact = seconds_since(t0);
  const double fixed_bytes =
      static_cast<double>(kSweeps) * (8 + frames.front().payload.size());
  const double stored_bytes =
      static_cast<double>(wal_stats.counter("resilience.wal_bytes"));
  const double compaction_x = fixed_bytes / stored_bytes;
  std::printf("compact records, %zu frames x %d reps:\n", frames.size(),
              kCrcReps);
  std::printf("  transcode      %7.2f ms (%.0f M samples/s, %.1f B/sample "
              "out)\n",
              t_compact * 1e3,
              kCrcReps * static_cast<double>(total_samples) / t_compact / 1e6,
              static_cast<double>(compact_sum) / kCrcReps / total_samples);
  std::printf("  WAL bytes      %.0f fixed-width -> %.0f stored (%.2fx)\n\n",
              fixed_bytes, stored_bytes, compaction_x);
  json_metric("wal.record_compaction_x", compaction_x);
  shape_check(oracle_equal,
              "the WAL's compact transcode equals the reference encoder on "
              "every payload");
  shape_check(compaction_x >= 2.0,
              hpcmon::core::strformat("compact WAL records are >= 2x smaller "
                                      "than fixed-width frames (%.2fx)",
                                      compaction_x));
  return finish();
}
