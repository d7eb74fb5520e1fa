// ObsRegistry: the one catalog of self-observability instruments.
//
// Every tier registers its instruments here exactly once, with a stable
// dotted name ("ingest.accepted_samples"), a unit, a description, and a
// core::Priority for the exported hpcmon.self.* series. Hot-path updates
// never touch the registry — instruments are plain atomic values the tier
// holds directly (registry-owned via counter()/gauge()/histogram(), or
// tier-owned and attached via attach_*) — so registration cost is paid once
// and updates stay O(1) and lock-free.
//
// Multiple instruments may be attached under one name (each shard's store
// counters, each supervised sampler's call counters); snapshot() merges
// them: counters sum, gauges combine per their declared aggregation,
// histograms merge bucket-wise. snapshot() walks the catalog under its
// mutex and reads every instrument with relaxed loads, yielding one
// consistent-enough ObsSnapshot that feeds BOTH the degradation control
// loop (HealthSignals) and the operator-facing export — the same numbers,
// by construction.
//
// Lifetime: attached instruments must outlive any snapshot() call; in
// practice the owner (MonitoringStack) declares the registry before the
// tiers and never snapshots during teardown.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/priority.hpp"
#include "obs/instruments.hpp"

namespace hpcmon::obs {

enum class InstrumentKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// How same-name gauge instances combine at snapshot time (counters always
/// sum; histograms always merge bucket-wise).
enum class GaugeAgg : std::uint8_t { kMax, kSum };

struct InstrumentInfo {
  std::string name;         // dotted, e.g. "store.cache_hits"
  std::string unit;         // e.g. "samples", "us", "frac"
  std::string description;  // Table I: "the meaning of all raw data"
  /// Shedding class of the exported hpcmon.self.* series. Self-telemetry
  /// defaults to critical: the monitor's own vitals must survive the storms
  /// they report on.
  core::Priority priority = core::Priority::kCritical;
  GaugeAgg gauge_agg = GaugeAgg::kMax;
};

/// One instrument's merged reading inside a snapshot.
struct InstrumentValue {
  InstrumentInfo info;
  InstrumentKind kind = InstrumentKind::kCounter;
  std::uint64_t counter = 0;    // kCounter
  double gauge = 0.0;           // kGauge
  HistogramSnapshot histogram;  // kHistogram
};

/// A consistent point-in-time view of every registered instrument, in
/// registration order. merge() combines snapshots from sibling registries
/// (associatively), aligning entries by name.
struct ObsSnapshot {
  std::vector<InstrumentValue> values;

  const InstrumentValue* find(std::string_view name) const;
  /// Counter value by name; 0 when absent (absent == never incremented).
  std::uint64_t counter(std::string_view name) const;
  /// Gauge value by name; 0.0 when absent.
  double gauge(std::string_view name) const;
  /// Histogram by name; nullptr when absent.
  const HistogramSnapshot* histogram(std::string_view name) const;

  void merge(const ObsSnapshot& o);
};

class ObsRegistry {
 public:
  /// Register (or look up) a registry-owned instrument. Re-registering the
  /// same name returns the SAME instrument (first metadata wins), so
  /// same-name registrations from sibling components share one atomic.
  Counter& counter(const InstrumentInfo& info);
  Gauge& gauge(const InstrumentInfo& info);
  Histogram& histogram(const InstrumentInfo& info);

  /// Catalog an externally-owned instrument under `info.name`. Several
  /// attachments may share a name; snapshot() merges them. The instrument
  /// must outlive every subsequent snapshot().
  void attach(const InstrumentInfo& info, const Counter* c);
  void attach(const InstrumentInfo& info, const Gauge* g);
  void attach(const InstrumentInfo& info, const Histogram* h);

  ObsSnapshot snapshot() const;

  std::size_t instrument_count() const;

 private:
  struct Entry {
    InstrumentInfo info;
    InstrumentKind kind;
    std::vector<const void*> sources;  // Counter*/Gauge*/Histogram*
  };

  Entry& entry_for(const InstrumentInfo& info, InstrumentKind kind);

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  std::unordered_map<std::string, std::size_t> by_name_;
  // Owned instruments; deques keep addresses stable across growth.
  std::deque<Counter> owned_counters_;
  std::deque<Gauge> owned_gauges_;
  std::deque<Histogram> owned_histograms_;
};

/// The catalog entry of a tier's stage histogram, "stage.<stage>_us": the
/// real microseconds one pipeline stage took, timed with Span.
inline InstrumentInfo stage_info(const std::string& stage) {
  return {"stage." + stage + "_us", "us",
          "real-time latency distribution of pipeline stage " + stage};
}

/// One component's instruments, read on their own: a fresh registry, the
/// component's attach_to, one snapshot. The read path for a tier held
/// outside a MonitoringStack (tests, benches); inside one, read
/// MonitoringStack::obs_snapshot().
template <class T>
ObsSnapshot snapshot_of(const T& component) {
  ObsRegistry registry;
  component.attach_to(registry);
  return registry.snapshot();
}

}  // namespace hpcmon::obs
