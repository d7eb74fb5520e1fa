// Lock-free self-observability instruments: Counter, Gauge, Histogram.
//
// The paper's §III-IV complaint is fragmentation — every site (and, until
// this subsystem, every hpcmon tier) grew a bespoke metrics struct with its
// own snapshot, merge, and re-ingest path. hpcmon::obs is the single
// instrument layer all tiers register with: relaxed-atomic counters and
// gauges for O(1) hot-path updates, a fixed log-bucketed histogram with
// mergeable snapshots and quantile estimation, and one export path
// (exporter.hpp) that turns a registry snapshot into hpcmon.self.* series
// and the operator report.
//
// Instruments are standalone values — a tier holds them as members and the
// owner attaches them to an ObsRegistry (registry.hpp) under a stable name.
// A tier times its own stages the same way: one Histogram per stage, filled
// by Span.
// Several instruments attached under one name (per-shard stores, per-sampler
// supervisors) merge at snapshot time: counters sum, gauges combine per
// their declared aggregation, histograms add bucket-wise.
//
// The noop namespace mirrors the API with empty inline bodies so hot paths
// can be template-instantiated with instruments compiled out entirely
// (bench/ablation_obs_overhead measures the difference).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <vector>

namespace hpcmon::obs {

/// Monotonic event count. All operations are relaxed atomics: self-telemetry
/// must never order (or slow) the data it observes.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous reading (queue depth, fill fraction, mode). set() overwrites;
/// update_max() keeps a high-water mark.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void update_max(double v) {
    double seen = v_.load(std::memory_order_relaxed);
    while (seen < v &&
           !v_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Point-in-time histogram contents; plain values, mergeable, and able to
/// estimate quantiles. merge() is associative and commutative (bucket-wise
/// sums plus a max), so snapshots from shards/replicas combine in any order.
struct HistogramSnapshot {
  std::vector<std::uint64_t> buckets;  // trimmed at the last nonzero bucket
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;

  void merge(const HistogramSnapshot& o);
  /// Estimated value at quantile q in [0,1] (bucket midpoint; relative error
  /// bounded by the sub-bucket resolution, ~3%). 0 when empty.
  double quantile(double q) const;
  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Fixed log-linear bucketed histogram over non-negative integer values
/// (typically microseconds or sample counts). Values below 2^kSubBits get
/// exact unit buckets; above, each power-of-two octave is split into
/// 2^kSubBits sub-buckets, bounding relative quantile error at
/// 2^-(kSubBits+1) ≈ 3.1%. record() is wait-free (one relaxed fetch_add per
/// atomic touched); snapshots are consistent enough for telemetry (each
/// cell individually atomic).
class Histogram {
 public:
  static constexpr std::uint32_t kSubBits = 4;
  static constexpr std::uint32_t kSub = 1u << kSubBits;  // 16
  static constexpr std::size_t kBuckets = kSub + (64 - kSubBits) * kSub;

  void record(std::uint64_t v) {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (seen < v &&
           !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  HistogramSnapshot snapshot() const;

  /// Bucket index for a value (exposed for tests).
  static std::size_t bucket_of(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const auto msb = static_cast<std::uint32_t>(63 - std::countl_zero(v));
    const auto sub =
        static_cast<std::uint32_t>(v >> (msb - kSubBits)) & (kSub - 1);
    return kSub + static_cast<std::size_t>(msb - kSubBits) * kSub + sub;
  }
  /// Inclusive lower bound of a bucket (exposed for tests).
  static std::uint64_t bucket_lower(std::size_t idx);
  /// Representative (midpoint) value reported for a bucket.
  static double bucket_mid(std::size_t idx);

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// RAII latency span: real (steady_clock) microseconds from construction to
/// finish(), or to destruction if never finished, recorded once into a
/// histogram the timing tier owns. The library's telemetry runs on the
/// simulated timeline, but the tiers it times are real threads doing real
/// work. A read that learns mid-flight which stage it was (summary, cursor
/// or cache) re-points the span before it records.
class Span {
 public:
  explicit Span(Histogram& hist)
      : hist_(&hist), t0_(std::chrono::steady_clock::now()) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { finish(); }

  void set(Histogram& hist) { hist_ = &hist; }

  void finish() {
    if (hist_ == nullptr) return;
    hist_->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count()));
    hist_ = nullptr;
  }

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point t0_;
};

/// API-compatible no-op instruments: instantiate a hot path template with
/// these to compile the instrumentation out (the baseline arm of
/// bench/ablation_obs_overhead).
namespace noop {
struct Counter {
  void add(std::uint64_t = 1) {}
  std::uint64_t value() const { return 0; }
};
struct Gauge {
  void set(double) {}
  void update_max(double) {}
  double value() const { return 0.0; }
};
struct Histogram {
  void record(std::uint64_t) {}
  std::uint64_t count() const { return 0; }
};
}  // namespace noop

}  // namespace hpcmon::obs
