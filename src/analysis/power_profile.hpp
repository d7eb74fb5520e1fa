// Power-profile library and imbalance detection (KAUST, Sec. II.7 / Fig 3).
//
// KAUST found "power profiles of applications were repeatable enough that
// they can, through profiling, characterization, continuous monitoring, and
// comparison against power profiles of known good application runs, identify
// problems with the system and applications". PowerProfileLibrary stores a
// normalized reference trace per application and scores new runs against it.
// ImbalanceDetector implements the Fig 3 signal directly: cabinet-to-cabinet
// power variation during a job flags load imbalance / hung nodes.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/time.hpp"

namespace hpcmon::analysis {

/// A power trace normalized to `points` samples over the run and to mean 1.0
/// (so profiles compare across job sizes and durations).
struct PowerProfile {
  std::string app_name;
  std::vector<double> shape;  // `points` values, mean-normalized

  static PowerProfile from_trace(std::string app_name,
                                 const std::vector<core::TimedValue>& trace,
                                 std::size_t points = 64);
};

/// Normalized RMS distance between two profiles (0 = identical shape).
double profile_distance(const PowerProfile& a, const PowerProfile& b);

class PowerProfileLibrary {
 public:
  /// Record (or replace) the known-good reference for an app.
  void set_reference(PowerProfile profile);
  const PowerProfile* reference(const std::string& app_name) const;

  /// Distance of a run's trace from its app's reference; nullopt when no
  /// reference exists. Distances above ~0.25 are suspicious in practice.
  std::optional<double> score_run(const std::string& app_name,
                                  const std::vector<core::TimedValue>& trace) const;

  std::size_t size() const { return profiles_.size(); }

 private:
  std::map<std::string, PowerProfile> profiles_;
};

/// One detected imbalance window.
struct ImbalanceWindow {
  core::TimeRange range;
  double max_ratio = 1.0;    // max over window of (max cabinet / min cabinet)
  double draw_drop = 1.0;    // baseline system draw / window system draw
};

struct ImbalanceParams {
  /// Cabinet max/min power ratio that flags imbalance (Fig 3 showed ~3x).
  double ratio_threshold = 2.0;
  /// Windows shorter than this are ignored (sampling noise).
  core::Duration min_duration = 2 * core::kMinute;
};

/// Detect imbalance windows from synchronized per-cabinet power series.
/// `cabinet_series[c]` are the samples of cabinet c over the analysis range;
/// all series must share timestamps (synchronized sweeps).
std::vector<ImbalanceWindow> detect_imbalance(
    const std::vector<std::vector<core::TimedValue>>& cabinet_series,
    const ImbalanceParams& params = {});

}  // namespace hpcmon::analysis
