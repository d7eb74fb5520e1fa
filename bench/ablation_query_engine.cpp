// Ablation: query-engine overhaul — chunk summaries, streaming cursors,
// shared-lock concurrency, and the decode cache vs the old read path
// (global mutex, decompress-everything-then-filter).
//
// The paper picks time-series engines for "superior data compression and
// query performance" (Sec. IV-C); dashboards and per-job reports then hammer
// the store with range aggregates while ingest keeps writing. This bench
// quantifies the three read-path wins:
//   1. stepped aggregation: summary-covered chunks answered O(1);
//   2. the decode cache: repeated dashboard windows skip Gorilla decode;
//   3. shared/striped locking: readers overlap instead of serializing.
// It also reports what the open heads hold: each point is encoded into its
// series' Gorilla stream on arrival, so a head costs what a sealed chunk
// does instead of 16 B per point.
//
// Method. Container CI for this repo commonly pins the process to one
// hardware thread, so (consistent with ablation_ingest_scaling) reader
// scaling is reported from a CALIBRATED MAKESPAN MODEL over REAL measured
// per-query costs:
//   makespan(R) = max( serial lock-held work , total query work / R )
// The old engine held the one store mutex for the ENTIRE query (decode
// included), so its serial term IS the total work — flat at any R. The new
// engine only pins locks during the snapshot (decode happens on shared_ptr
// refs outside), so its serial term is the snapshot cost. A real-threaded
// run is also executed as a correctness reference.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/rng.hpp"
#include "ingest/sharded_store.hpp"
#include "store/cursor.hpp"

#include "../tests/reference_codec.hpp"  // original bit-at-a-time codec

namespace hpcmon::bench {
namespace {

using core::SeriesId;
using core::TimedValue;
using core::TimePoint;
using core::TimeRange;
using std::chrono::steady_clock;

constexpr std::uint32_t kSeries = 8;
constexpr int kPointsPerSeries = 40000;
constexpr std::size_t kChunkPoints = 256;  // ~156 sealed chunks per series
constexpr int kQueryReps = 40;

double seconds_since(steady_clock::time_point t0) {
  return std::chrono::duration<double>(steady_clock::now() - t0).count();
}

void fill(store::TimeSeriesStore& s, int points = kPointsPerSeries) {
  core::Rng rng(4242);
  for (std::uint32_t id = 0; id < kSeries; ++id) {
    TimePoint t = 0;
    double level = rng.uniform(100.0, 300.0);
    for (int i = 0; i < points; ++i) {
      t += core::kSecond;
      level += rng.normal(0.0, 1.0);
      s.append(SeriesId{id}, t, level);
    }
  }
}

// The old engine's aggregate: materialize the whole range, then fold.
std::optional<double> old_aggregate(const store::TimeSeriesStore& s,
                                    SeriesId id, const TimeRange& range,
                                    store::Agg agg) {
  return store::aggregate_points(s.query_range(id, range), agg);
}

}  // namespace
}  // namespace hpcmon::bench

int main(int argc, char** argv) {
  hpcmon::bench::json_init(argc, argv);
  using namespace hpcmon;
  using namespace hpcmon::bench;

  header("Ablation: query-engine overhaul (summaries + cursors + cache + "
         "shared locks)",
         "Sec. IV-C storage requirements: query performance at dashboard "
         "rates while ingest continues");

  // Two identical datasets: `engine` uses every new fast path; `baseline`
  // has the decode cache disabled and is only queried through the
  // materialize-then-fold path, approximating the pre-overhaul engine.
  store::TimeSeriesStore engine(kChunkPoints, /*cache_chunks=*/256);
  store::TimeSeriesStore baseline(kChunkPoints, /*cache_chunks=*/0);
  fill(engine);
  fill(baseline);
  const TimePoint end = (kPointsPerSeries + 1) * core::kSecond;
  const TimeRange full{0, end};
  const auto st = engine.stats();
  std::printf("\nWorkload: %u series x %d points, chunk_points=%zu "
              "(%zu sealed chunks, %.1f MB raw -> %.1f MB compressed)\n",
              kSeries, kPointsPerSeries, kChunkPoints, st.sealed_chunks,
              st.points * 16.0 / 1e6, st.compressed_bytes / 1e6);

  // -- 1. Stepped aggregation vs full decode ---------------------------------
  double t_old = 0.0, t_new = 0.0;
  double sink = 0.0;
  {
    auto t0 = steady_clock::now();
    for (int r = 0; r < kQueryReps; ++r) {
      for (std::uint32_t id = 0; id < kSeries; ++id) {
        sink += *old_aggregate(baseline, SeriesId{id}, full, store::Agg::kMean);
      }
    }
    t_old = seconds_since(t0);
    t0 = steady_clock::now();
    for (int r = 0; r < kQueryReps; ++r) {
      for (std::uint32_t id = 0; id < kSeries; ++id) {
        sink -= *engine.aggregate(SeriesId{id}, full, store::Agg::kMean);
      }
    }
    t_new = seconds_since(t0);
  }
  const double agg_speedup = t_old / t_new;
  std::printf("\nFull-range mean over %d x %u queries:\n", kQueryReps, kSeries);
  std::printf("  old engine (decode all, then fold): %8.1f ms\n", t_old * 1e3);
  std::printf("  new engine (summary-covered chunks): %7.1f ms  (%.1fx)\n",
              t_new * 1e3, agg_speedup);
  std::printf("  (answer drift from reassociation: %.3g)\n", sink);
  const auto qs = obs::snapshot_of(engine);
  const auto summary_chunks = qs.counter("store.summary_chunks");
  const auto cursor_chunks = qs.counter("store.cursor_chunks");
  std::printf(
      "  store.queries=%llu store.summary_chunks=%llu "
      "store.cursor_chunks=%llu store.cache_hits=%llu\n",
      static_cast<unsigned long long>(qs.counter("store.queries")),
      static_cast<unsigned long long>(summary_chunks),
      static_cast<unsigned long long>(cursor_chunks),
      static_cast<unsigned long long>(qs.counter("store.cache_hits")));
  json_metric("query.agg_speedup_x", agg_speedup);
  shape_check(agg_speedup >= 5.0,
              core::strformat("summary-answered range aggregate is >= 5x "
                              "faster than full decode (%.1fx)",
                              agg_speedup));
  shape_check(summary_chunks > 0 && summary_chunks >= 100 * cursor_chunks,
              "full-range aggregates are answered almost entirely from "
              "summaries (boundary chunks only on the cursor path)");

  // -- 2. Decode cache: repeated dashboard window ----------------------------
  {
    const TimeRange window{end - 3600 * core::kSecond, end};  // last hour
    store::TimeSeriesStore cold_store(kChunkPoints, /*cache_chunks=*/0);
    fill(cold_store);
    auto t0 = steady_clock::now();
    std::size_t n = 0;
    for (int r = 0; r < kQueryReps; ++r) {
      n += cold_store.query_range(SeriesId{0}, window).size();
    }
    const double t_cold = seconds_since(t0);
    (void)engine.query_range(SeriesId{0}, window);  // warm the cache
    const auto hits_before =
        obs::snapshot_of(engine).counter("store.cache_hits");
    t0 = steady_clock::now();
    for (int r = 0; r < kQueryReps; ++r) {
      n -= engine.query_range(SeriesId{0}, window).size();
    }
    const double t_warm = seconds_since(t0);
    const auto hits =
        obs::snapshot_of(engine).counter("store.cache_hits") - hits_before;
    std::printf("\nRepeated 1-hour window query (x%d): uncached %6.1f ms, "
                "cached %6.1f ms (%.1fx), %llu cache hits, sizes cancel to "
                "%zu\n",
                kQueryReps, t_cold * 1e3, t_warm * 1e3, t_cold / t_warm,
                static_cast<unsigned long long>(hits), n);
    json_metric("query.decode_cache_speedup_x", t_cold / t_warm);
    shape_check(t_warm < t_cold,
                "decode cache makes the repeated dashboard window cheaper "
                "than decoding every time");
    shape_check(hits >= static_cast<std::uint64_t>(kQueryReps),
                "every repeated-window query after the first is served from "
                "the decode cache");
  }

  // -- 3. scan(): streaming with early exit ----------------------------------
  {
    auto t0 = steady_clock::now();
    std::size_t n = 0;
    for (int r = 0; r < kQueryReps; ++r) {
      n += baseline.query_range(SeriesId{0}, full).size();  // materialize all
    }
    const double t_mat = seconds_since(t0);
    t0 = steady_clock::now();
    std::size_t visited = 0;
    for (int r = 0; r < kQueryReps; ++r) {
      visited += baseline.scan(SeriesId{0}, full, [&](const TimedValue& p) {
        return p.time < 100 * core::kSecond;  // first ~100 points suffice
      });
    }
    const double t_scan = seconds_since(t0);
    std::printf("\nFirst-100-points probe (x%d): materialize-all %6.1f ms "
                "(%zu pts), scan+early-exit %6.2f ms (%.0fx, visited %zu)\n",
                kQueryReps, t_mat * 1e3, n, t_scan * 1e3, t_mat / t_scan,
                visited);
    json_metric("query.scan_vs_materialize_x", t_mat / t_scan);
    shape_check(t_scan * 10.0 < t_mat,
                "scan() with early exit beats materializing the range by "
                ">= 10x when the visitor stops early");
  }

  // -- 4. Reader scaling: calibrated makespan model --------------------------
  {
    // Real per-query cost of a decode-heavy query (cache off so every rep
    // does the full cursor work — the worst case for lock-held time in the
    // old engine).
    const TimeRange window{end / 2 + 17, end};  // boundary-heavy half range
    auto t0 = steady_clock::now();
    double s2 = 0.0;
    for (int r = 0; r < kQueryReps; ++r) {
      for (std::uint32_t id = 0; id < kSeries; ++id) {
        s2 += *old_aggregate(baseline, SeriesId{id}, window, store::Agg::kMax);
      }
    }
    const int kQueries = kQueryReps * static_cast<int>(kSeries);
    const double per_query = seconds_since(t0) / kQueries;
    // Lock-held proxy for the new engine: a snapshot-only query (summary
    // path, nothing decoded) measures the map+stripe critical section plus
    // the O(chunks) ref-copy — an upper bound on what a reader serializes.
    t0 = steady_clock::now();
    for (int r = 0; r < kQueryReps; ++r) {
      for (std::uint32_t id = 0; id < kSeries; ++id) {
        s2 -= *engine.aggregate(SeriesId{id}, full, store::Agg::kCount);
      }
    }
    const double per_snapshot = seconds_since(t0) / kQueries;
    std::printf("\nReader-scaling model (real costs: %.1f us/query total, "
                "%.2f us lock-held proxy; drift %.3g):\n",
                per_query * 1e6, per_snapshot * 1e6, s2);
    std::printf("  makespan(R) = max(serial, total/R) over %d queries\n",
                kQueries);
    std::printf("  %-28s", "design\\readers");
    const int readers[] = {1, 2, 4, 8};
    for (int r : readers) std::printf("  R=%-8d", r);
    std::printf("  (kqueries/s)\n");
    const double total_work = per_query * kQueries;
    double old_r4 = 0.0, new_r4 = 0.0, new_r1 = 0.0;
    std::printf("  %-28s", "old (global mutex)");
    for (int r : readers) {
      // The old engine's mutex is held for the whole query: serial == total.
      const double mk = total_work;
      const double kqps = kQueries / mk / 1e3;
      if (r == 4) old_r4 = kqps;
      std::printf("  %-10.1f", kqps);
    }
    std::printf("\n  %-28s", "new (shared + striped)");
    for (int r : readers) {
      const double mk = std::max(per_snapshot * kQueries, total_work / r);
      const double kqps = kQueries / mk / 1e3;
      if (r == 1) new_r1 = kqps;
      if (r == 4) new_r4 = kqps;
      std::printf("  %-10.1f", kqps);
    }
    std::printf("\n");
    json_metric("query.new_engine_r1_kqps", new_r1);
    json_metric("query.new_engine_r4_kqps", new_r4);
    json_metric("query.old_engine_r4_kqps", old_r4);
    shape_check(new_r4 >= 2.0 * new_r1,
                core::strformat("new engine's modeled 4-reader throughput "
                                "scales >= 2x over 1 reader (%.1fx)",
                                new_r4 / new_r1));
    shape_check(new_r4 >= 2.0 * old_r4,
                core::strformat("at 4 readers the shared-lock engine models "
                                ">= 2x the global-mutex engine (%.1fx)",
                                new_r4 / old_r4));

    // Real-threaded reference: 4 readers hammer the engine concurrently
    // while a writer appends a fresh series. Validates correctness under
    // contention; wall-clock speedup needs a multi-core host.
    std::atomic<std::uint64_t> answered{0};
    t0 = steady_clock::now();
    std::vector<std::thread> pool;
    for (int r = 0; r < 4; ++r) {
      pool.emplace_back([&, r] {
        for (int q = 0; q < kQueryReps; ++q) {
          const auto v = engine.aggregate(
              SeriesId{static_cast<std::uint32_t>((r + q) % kSeries)}, window,
              store::Agg::kMax);
          answered.fetch_add(v.has_value(), std::memory_order_relaxed);
        }
      });
    }
    TimePoint wt = 0;
    for (int i = 0; i < 5000; ++i) {
      engine.append(SeriesId{kSeries}, wt += core::kSecond, 1.0 * i);
    }
    for (auto& t : pool) t.join();
    std::printf("  reference (real 4 reader threads + 1 writer): %.1f ms "
                "wall, %llu/%d queries answered, writer appended 5000\n",
                seconds_since(t0) * 1e3,
                static_cast<unsigned long long>(answered.load()),
                4 * kQueryReps);
    shape_check(answered.load() == 4 * kQueryReps,
                "all concurrent-reader queries answered while the writer "
                "made progress");
  }

  // -- 5. Sharded scatter-gather fan-out -------------------------------------
  {
    ingest::ShardedTimeSeriesStore sharded(4, kChunkPoints);
    core::Rng rng(7);
    std::vector<SeriesId> ids;
    for (std::uint32_t s = 0; s < 64; ++s) {
      ids.push_back(SeriesId{s});
      TimePoint t = 0;
      for (int i = 0; i < 4000; ++i) {
        sharded.append(SeriesId{s}, t += core::kSecond, rng.uniform(0., 100.));
      }
    }
    const TimeRange r{0, 4001 * core::kSecond};
    const auto t0 = steady_clock::now();
    const auto results = sharded.aggregate_many(ids, r, store::Agg::kMean);
    const double t_many = seconds_since(t0);
    std::size_t ok = 0;
    for (const auto& v : results) ok += v.has_value();
    std::printf("\naggregate_many over %zu series x 4 shards: %.2f ms, "
                "%zu answered\n",
                ids.size(), t_many * 1e3, ok);
    shape_check(ok == ids.size(),
                "scatter-gather fan-out answers every series in one call");
  }

  // -- 6. Hot-path codec: word-at-a-time vs the original bit-at-a-time -------
  {
    // One big chunk of jittered-cadence random-walk data: every dod class 1
    // and XOR window path gets exercised, like real telemetry.
    std::vector<TimedValue> pts;
    core::Rng rng(99);
    TimePoint t = 0;
    double level = 200.0;
    pts.reserve(kPointsPerSeries);
    for (int i = 0; i < kPointsPerSeries; ++i) {
      t += core::kSecond +
           static_cast<core::Duration>(rng.uniform(0.0, 2000.0));
      level += rng.normal(0.0, 1.0);
      pts.push_back({t, level});
    }
    constexpr int kCodecReps = 25;
    const auto chunk = store::Chunk::compress(pts);
    shape_check(chunk.payload() == refcodec::ref_encode_payload(pts),
                "word-at-a-time encoder emits a byte-identical payload to the "
                "original bit-at-a-time codec");

    auto t0 = steady_clock::now();
    std::size_t bytes = 0;
    for (int r = 0; r < kCodecReps; ++r) {
      bytes += refcodec::ref_encode_payload(pts).size();
    }
    const double t_enc_ref = seconds_since(t0);
    t0 = steady_clock::now();
    for (int r = 0; r < kCodecReps; ++r) {
      bytes -= store::Chunk::compress(pts).payload().size();
    }
    const double t_enc_new = seconds_since(t0);

    t0 = steady_clock::now();
    std::size_t decoded = 0;
    for (int r = 0; r < kCodecReps; ++r) {
      decoded +=
          refcodec::ref_decode_payload(chunk.payload(), chunk.count()).size();
    }
    const double t_dec_ref = seconds_since(t0);
    std::vector<TimedValue> out;
    t0 = steady_clock::now();
    for (int r = 0; r < kCodecReps; ++r) {
      out.clear();
      decoded -= store::decode_all(chunk, out);
    }
    const double t_dec_new = seconds_since(t0);

    const double enc_x = t_enc_ref / t_enc_new;
    const double dec_x = t_dec_ref / t_dec_new;
    const double dec_msps =
        kCodecReps * static_cast<double>(pts.size()) / t_dec_new / 1e6;
    std::printf("\nHot-path codec, %d points x %d reps (byte drift %zu):\n",
                kPointsPerSeries, kCodecReps, bytes + decoded);
    std::printf("  encode: bit-at-a-time %7.1f ms, word-at-a-time %7.1f ms "
                "(%.1fx)\n",
                t_enc_ref * 1e3, t_enc_new * 1e3, enc_x);
    std::printf("  decode: bit-at-a-time %7.1f ms, word-at-a-time %7.1f ms "
                "(%.1fx, %.1f Msamples/s)\n",
                t_dec_ref * 1e3, t_dec_new * 1e3, dec_x, dec_msps);
    json_metric("query.codec_encode_speedup_x", enc_x);
    json_metric("query.codec_decode_speedup_x", dec_x);
    json_metric("query.full_decode_msamples_per_s", dec_msps);
    shape_check(dec_x >= 2.0,
                core::strformat("batch decode_all is >= 2x the bit-at-a-time "
                                "decoder on the full-decode path (%.1fx)",
                                dec_x));
    shape_check(enc_x >= 1.5,
                core::strformat("word-at-a-time encode is >= 1.5x the "
                                "bit-at-a-time encoder (%.1fx)",
                                enc_x));
  }

  // -- 7. Open head: encoded on arrival -------------------------------------
  {
    // The same telemetry at 480 points per series: below chunk_points, so
    // every point is still in an open head. The twin store seals exactly
    // those points, one chunk per series.
    constexpr int kOpenPoints = 480;
    store::TimeSeriesStore open(512, 0);
    store::TimeSeriesStore sealed(kOpenPoints, 0);
    fill(open, kOpenPoints);
    fill(sealed, kOpenPoints);
    const auto os = open.stats();
    const auto ss = sealed.stats();
    const double head_x = 16.0 * static_cast<double>(os.head_points) /
                          static_cast<double>(os.head_bytes);
    std::printf("\nOpen heads, %u series x %d points: %zu points in %zu B "
                "(%.2f B/point, %.1fx under 16 B/point); the same points "
                "sealed: %zu B\n",
                kSeries, kOpenPoints, os.head_points, os.head_bytes,
                static_cast<double>(os.head_bytes) /
                    static_cast<double>(os.head_points),
                head_x, ss.compressed_bytes);
    json_metric("query.head_compression_x", head_x);
    shape_check(os.head_points == std::size_t{kSeries} * kOpenPoints &&
                    ss.head_points == 0 && ss.sealed_chunks == kSeries,
                "below chunk_points every point stays in the open head");
    const auto gap = os.head_bytes > ss.compressed_bytes
                         ? os.head_bytes - ss.compressed_bytes
                         : ss.compressed_bytes - os.head_bytes;
    shape_check(gap <= 8 * std::size_t{kSeries},
                core::strformat("open heads hold their points within one "
                                "8-byte word per series of the sealed "
                                "payloads (%zu vs %zu B)",
                                os.head_bytes, ss.compressed_bytes));
  }

  return finish();
}
