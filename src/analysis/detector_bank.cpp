#include "analysis/detector_bank.hpp"

namespace hpcmon::analysis {

DetectorFactory zscore_factory(std::size_t window, double threshold) {
  return [window, threshold]() -> DetectorFn {
    auto det = std::make_shared<ZScoreDetector>(window, threshold);
    return [det](core::TimePoint t, double v) { return det->update(t, v); };
  };
}

DetectorFactory mad_factory(std::size_t window, double threshold) {
  return [window, threshold]() -> DetectorFn {
    auto det = std::make_shared<MadDetector>(window, threshold);
    return [det](core::TimePoint t, double v) { return det->update(t, v); };
  };
}

DetectorFactory above_factory(double upper, double hysteresis) {
  return [upper, hysteresis]() -> DetectorFn {
    auto det = std::make_shared<ThresholdDetector>(upper, hysteresis);
    return [det](core::TimePoint t, double v) { return det->update(t, v); };
  };
}

DetectorFactory below_factory(double lower, double hysteresis) {
  return [lower, hysteresis]() -> DetectorFn {
    // Negate: crossing below `lower` == -value crossing above -lower.
    auto det = std::make_shared<ThresholdDetector>(-lower, hysteresis);
    return [det](core::TimePoint t, double v) {
      auto ev = det->update(t, -v);
      if (ev) {
        ev->value = v;  // report the real value, not the negated one
        ev->detector = "below";
      }
      return ev;
    };
  };
}

DetectorFactory cusum_factory(double target, double slack, double decision) {
  return [target, slack, decision]() -> DetectorFn {
    auto det = std::make_shared<CusumDetector>(target, slack, decision);
    return [det](core::TimePoint t, double v) { return det->update(t, v); };
  };
}

void DetectorBank::watch(std::string watch_name, std::string_view metric_name,
                         DetectorFactory factory) {
  Watch w;
  w.name = std::move(watch_name);
  w.metric = std::string(metric_name);
  w.metric_index = registry_.register_metric({w.metric, "", "", false});
  w.factory = std::move(factory);
  if (w.metric_index >= watches_by_metric_.size()) {
    watches_by_metric_.resize(w.metric_index + 1);
  }
  watches_by_metric_[w.metric_index].push_back(
      static_cast<std::uint32_t>(watches_.size()));
  watches_.push_back(std::move(w));
}

std::vector<NumericAnomaly> DetectorBank::process(
    const core::SampleBatch& batch) {
  std::vector<NumericAnomaly> out;
  for (const auto& s : batch.samples) {
    const auto metric_index = registry_.series_metric(s.series);
    if (metric_index < watches_by_metric_.size() &&
        !watches_by_metric_[metric_index].empty()) {
      feed(s, watches_by_metric_[metric_index], out);
    }
  }
  return out;
}

void DetectorBank::feed(const core::Sample& s,
                        const std::vector<std::uint32_t>& watch_indices,
                        std::vector<NumericAnomaly>& out) {
  // Ascending watch index, as registered: anomalies keep their order.
  for (const auto wi : watch_indices) {
    const auto& w = watches_[wi];
    const std::uint64_t key =
        (static_cast<std::uint64_t>(wi) << 32) | core::raw(s.series);
    auto it = detectors_.find(key);
    if (it == detectors_.end()) {
      it = detectors_.emplace(key, w.factory()).first;
    }
    if (auto ev = it->second(s.time, s.value)) {
      out.push_back({s.series, registry_.series_component(s.series), w.metric,
                     w.name, *ev});
    }
  }
}

}  // namespace hpcmon::analysis
