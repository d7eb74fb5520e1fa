// DetectorBank: per-series anomaly detection over sample streams.
//
// Table I (Response): alerting "should be able to be triggered based on
// arbitrary locations in the data and analysis pathways". The rule engine
// covers the log pathway; DetectorBank covers the numeric one: a watch binds
// a detector factory to a metric family, and the bank lazily instantiates
// one detector instance per (metric, component) series as samples arrive —
// O(1) state per series, suitable for in-stream deployment.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/anomaly.hpp"
#include "core/registry.hpp"
#include "core/sample.hpp"

namespace hpcmon::analysis {

/// A detector instance: feed (time, value), maybe get an anomaly.
using DetectorFn =
    std::function<std::optional<AnomalyEvent>(core::TimePoint, double)>;
/// Creates a fresh detector per watched series.
using DetectorFactory = std::function<DetectorFn()>;

// Factory helpers for the standard detectors.
DetectorFactory zscore_factory(std::size_t window, double threshold);
DetectorFactory mad_factory(std::size_t window, double threshold);
DetectorFactory above_factory(double upper, double hysteresis = 0.0);
/// Fires when the value drops below `lower` (free memory, bandwidth...).
DetectorFactory below_factory(double lower, double hysteresis = 0.0);
DetectorFactory cusum_factory(double target, double slack, double decision);

struct NumericAnomaly {
  core::SeriesId series{0};
  core::ComponentId component = core::kNoComponent;
  std::string metric;
  std::string watch_name;
  AnomalyEvent event;
};

class DetectorBank {
 public:
  explicit DetectorBank(core::MetricRegistry& registry)
      : registry_(registry) {}

  /// Watch every series of `metric_name` with detectors from `factory`.
  void watch(std::string watch_name, std::string_view metric_name,
             DetectorFactory factory);

  /// Feed one batch; returns anomalies fired by it.
  std::vector<NumericAnomaly> process(const core::SampleBatch& batch);

  std::size_t watch_count() const { return watches_.size(); }
  std::size_t active_detectors() const { return detectors_.size(); }

 private:
  struct Watch {
    std::string name;
    std::string metric;
    std::uint32_t metric_index;
    DetectorFactory factory;
  };
  /// Run one sample through the watches of its metric.
  void feed(const core::Sample& s,
            const std::vector<std::uint32_t>& watch_indices,
            std::vector<NumericAnomaly>& out);

  core::MetricRegistry& registry_;
  std::vector<Watch> watches_;
  // Watch indices per metric index, so process() visits only the watches
  // of each sample's metric.
  std::vector<std::vector<std::uint32_t>> watches_by_metric_;
  // Keyed by (watch index, series).
  std::unordered_map<std::uint64_t, DetectorFn> detectors_;
};

}  // namespace hpcmon::analysis
