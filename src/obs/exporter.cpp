#include "obs/exporter.hpp"

#include "core/strings.hpp"

namespace hpcmon::obs {

namespace {

/// Compact numeric rendering for gauges ("0.75", "12", "3.2e+06").
std::string gauge_str(double v) { return core::strformat("%.4g", v); }

}  // namespace

std::vector<core::Sample> ObsExporter::to_samples(
    const ObsSnapshot& snap, core::MetricRegistry& registry,
    core::ComponentId component, core::TimePoint now) const {
  std::vector<core::Sample> out;
  out.reserve(snap.values.size());
  const auto emit = [&](const std::string& name, const std::string& unit,
                        const std::string& desc, bool counter,
                        core::Priority pri, double value) {
    const auto metric =
        registry.register_metric({name, unit, desc, counter, pri});
    out.push_back({registry.series(metric, component), now, value});
  };
  for (const auto& v : snap.values) {
    const auto name = prefix_ + v.info.name;
    switch (v.kind) {
      case InstrumentKind::kCounter:
        emit(name, v.info.unit, v.info.description, true, v.info.priority,
             static_cast<double>(v.counter));
        break;
      case InstrumentKind::kGauge:
        emit(name, v.info.unit, v.info.description, false, v.info.priority,
             v.gauge);
        break;
      case InstrumentKind::kHistogram:
        emit(name + "_p50", v.info.unit, v.info.description + " (p50)", false,
             v.info.priority, v.histogram.quantile(0.50));
        emit(name + "_p95", v.info.unit, v.info.description + " (p95)", false,
             v.info.priority, v.histogram.quantile(0.95));
        emit(name + "_p99", v.info.unit, v.info.description + " (p99)", false,
             v.info.priority, v.histogram.quantile(0.99));
        emit(name + "_count", "events", v.info.description + " (count)", true,
             v.info.priority, static_cast<double>(v.histogram.count));
        break;
    }
  }
  return out;
}

std::string ObsExporter::report_line(const ObsSnapshot& snap) const {
  std::string line;
  for (const auto& v : snap.values) {
    switch (v.kind) {
      case InstrumentKind::kCounter:
        if (!line.empty()) line += ' ';
        line += core::strformat("%s=%llu", v.info.name.c_str(),
                                static_cast<unsigned long long>(v.counter));
        break;
      case InstrumentKind::kGauge:
        if (!line.empty()) line += ' ';
        line += v.info.name + '=' + gauge_str(v.gauge);
        break;
      case InstrumentKind::kHistogram:
        if (v.histogram.count == 0) break;  // an idle stage adds no noise
        if (!line.empty()) line += ' ';
        line += core::strformat(
            "%s{p50=%.0f p99=%.0f n=%llu}", v.info.name.c_str(),
            v.histogram.quantile(0.50), v.histogram.quantile(0.99),
            static_cast<unsigned long long>(v.histogram.count));
        break;
    }
  }
  return line;
}

}  // namespace hpcmon::obs
