// Aggregation queries for dashboards.
//
// Sec. III-B: "individual component graphs may decrease in value and
// performance as the number of components plotted increases. ... Reduced
// dimensionality through higher-level aggregations (e.g., percentage of
// components in a state, regardless of location) coupled with drill-down
// capabilities can enable better at-a-glance understanding." These helpers
// compute exactly those reductions over synchronized sample sweeps.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "core/time.hpp"
#include "store/tsdb.hpp"

namespace hpcmon::viz {

/// One component's value at a given instant (drill-down row).
struct ComponentValue {
  core::ComponentId component = core::kNoComponent;
  std::string name;
  double value = 0.0;
  core::TimePoint time = 0;  // actual sample time used
};

/// Cross-component aggregate at each synchronized timestamp: for every sweep
/// time in `range`, aggregate metric@component over `components`.
/// Returns a single series (Fig 4 top panel, Fig 1's mean utilization).
std::vector<core::TimedValue> aggregate_across(
    const store::TimeSeriesStore& store, core::MetricRegistry& registry,
    std::string_view metric_name,
    const std::vector<core::ComponentId>& components,
    const core::TimeRange& range, store::Agg agg);

/// Fraction of components whose value satisfies `predicate`, per timestamp
/// ("percentage of components in a state").
std::vector<core::TimedValue> fraction_in_state(
    const store::TimeSeriesStore& store, core::MetricRegistry& registry,
    std::string_view metric_name,
    const std::vector<core::ComponentId>& components,
    const core::TimeRange& range,
    const std::function<bool(double)>& predicate);

/// Per-component values at (or at the latest sample not after) time `at`,
/// sorted descending — the drill-down table under an aggregate spike.
std::vector<ComponentValue> breakdown_at(
    const store::TimeSeriesStore& store, core::MetricRegistry& registry,
    std::string_view metric_name,
    const std::vector<core::ComponentId>& components, core::TimePoint at,
    core::Duration lookback);

}  // namespace hpcmon::viz
