// Core time types for hpcmon.
//
// The paper (Sec. III-A) calls out that cross-component association breaks
// when "a single global timestamp is unavailable as local clock drift can
// result in erroneous associations". To make that failure mode testable, the
// entire library runs on an explicit simulated timeline: no module reads the
// wall clock. TimePoint is microseconds since simulation epoch.
#pragma once

#include <cstdint>
#include <string>

namespace hpcmon::core {

/// Microseconds since simulation epoch.
using TimePoint = std::int64_t;
/// Signed duration in microseconds.
using Duration = std::int64_t;

constexpr Duration kMicrosecond = 1;
constexpr Duration kMillisecond = 1000 * kMicrosecond;
constexpr Duration kSecond = 1000 * kMillisecond;
constexpr Duration kMinute = 60 * kSecond;
constexpr Duration kHour = 60 * kMinute;
constexpr Duration kDay = 24 * kHour;

/// Convert a duration to fractional seconds (for reporting only).
constexpr double to_seconds(Duration d) {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}

/// Convert fractional seconds to a Duration, truncating to microseconds.
constexpr Duration from_seconds(double s) {
  return static_cast<Duration>(s * static_cast<double>(kSecond));
}

/// Half-open time interval [begin, end).
struct TimeRange {
  TimePoint begin = 0;
  TimePoint end = 0;

  constexpr bool contains(TimePoint t) const { return t >= begin && t < end; }
  constexpr Duration length() const { return end - begin; }
  constexpr bool empty() const { return end <= begin; }
  /// True if the two ranges share at least one instant.
  constexpr bool overlaps(const TimeRange& o) const {
    return begin < o.end && o.begin < end;
  }
  friend constexpr bool operator==(const TimeRange&, const TimeRange&) = default;
};

/// One point of a series: what every read path returns.
struct TimedValue {
  TimePoint time = 0;
  double value = 0.0;
  friend bool operator==(const TimedValue&, const TimedValue&) = default;
};

/// Render a TimePoint as "D+HH:MM:SS.mmm" for logs and dashboards.
std::string format_time(TimePoint t);

/// Render a Duration as a compact human string, e.g. "90s", "2.5m", "3h".
std::string format_duration(Duration d);

}  // namespace hpcmon::core
