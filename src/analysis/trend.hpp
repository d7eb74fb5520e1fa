// Trend analysis: windowed linear regression and threshold-crossing
// forecasts.
//
// ALCF (Sec. II.8) "performs trend analysis ... on component error rates
// (e.g., High Speed Network (HSN) link Bit Error Rates)" to "flag and
// diagnose unusual behaviors on component and subsystem levels".
// TrendAnalyzer fits y = a + b*t over a trailing window and reports slope
// (per hour), fit quality, and — given a limit — the forecast crossing time.
#pragma once

#include <deque>
#include <optional>
#include <vector>

#include "core/time.hpp"

namespace hpcmon::analysis {

struct TrendFit {
  double slope_per_hour = 0.0;  // d(value)/d(hour)
  double intercept = 0.0;       // value at window start
  double r2 = 0.0;              // coefficient of determination
  std::size_t points = 0;
};

/// Ordinary least squares over an explicit point set.
TrendFit fit_trend(const std::vector<core::TimedValue>& points);

/// Rolling-window trend tracker for one series.
class TrendAnalyzer {
 public:
  explicit TrendAnalyzer(core::Duration window) : window_(window) {}

  void add(core::TimePoint t, double value);
  /// Fit over the current window; nullopt with < 3 points.
  std::optional<TrendFit> fit() const;

  /// Forecast when the trend crosses `limit`, or nullopt if the trend is
  /// flat/receding or the fit is poor (r2 < min_r2).
  std::optional<core::TimePoint> forecast_crossing(double limit,
                                                   double min_r2 = 0.5) const;

 private:
  core::Duration window_;
  std::deque<core::TimedValue> points_;
};

}  // namespace hpcmon::analysis
