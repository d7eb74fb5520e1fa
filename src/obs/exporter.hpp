// ObsExporter: the single export path for self-observability.
//
// Replaces the per-tier to_samples()/to_string() plumbing (IngestMetrics,
// resilience_samples, DegradationController::to_samples, per-tier status()
// string assembly) with two renderings of one ObsSnapshot:
//
//   to_samples()  re-ingests every instrument as an "hpcmon.self.<name>"
//                 series on the simulated timeline, registered with the
//                 instrument's declared priority (critical by default —
//                 the monitor's vitals must survive the storms they report
//                 on). Counters export cumulative values (is_counter),
//                 gauges export instantaneous readings, histograms export
//                 _p50/_p95/_p99 latency gauges plus a _count counter.
//
//   report_line() one-line operator summary (name=value per instrument;
//                 empty histograms elided) for MonitoringStack::status().
//
// The paper's §III-IV lesson is that analyses must be runnable "at a variety
// of locations within the monitoring infrastructure": because snapshots
// re-enter as ordinary series, every dashboard, detector, and retention tier
// works on the monitor's own vitals unchanged.
#pragma once

#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/sample.hpp"
#include "core/time.hpp"
#include "obs/registry.hpp"

namespace hpcmon::obs {

class ObsExporter {
 public:
  explicit ObsExporter(std::string prefix = "hpcmon.self.")
      : prefix_(std::move(prefix)) {}

  /// Render `snap` as samples at simulated time `now`, interning
  /// "<prefix><instrument>" metrics on `component`.
  std::vector<core::Sample> to_samples(const ObsSnapshot& snap,
                                       core::MetricRegistry& registry,
                                       core::ComponentId component,
                                       core::TimePoint now) const;

  /// One-line "k=v k=v ..." summary of every instrument.
  std::string report_line(const ObsSnapshot& snap) const;

  const std::string& prefix() const { return prefix_; }

 private:
  std::string prefix_;
};

}  // namespace hpcmon::obs
