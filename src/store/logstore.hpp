// Log event store with an inverted token index.
//
// Models the Splunk-style workflow the paper describes (Sec. IV-C): events
// are kept in native (structured) form; an index over message tokens makes
// "detection of well-known log lines" and occurrence counting cheap. Glob
// patterns (not full regex) cover the SEC-style matching used in production.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/log_event.hpp"
#include "core/result.hpp"
#include "core/time.hpp"

namespace hpcmon::store {

/// Filter for log queries; unset fields match everything.
struct LogQuery {
  core::TimeRange range{INT64_MIN, INT64_MAX};
  std::optional<core::Severity> max_severity;  // at least this severe (<=)
  std::optional<core::LogFacility> facility;
  std::optional<core::ComponentId> component;
  std::optional<core::JobId> job;
  /// Token that must appear in the message (fast path via index).
  std::string token;
  /// Glob over the whole message ('*'/'?'), applied after other filters.
  std::string message_glob;
};

class LogStore {
 public:
  /// Append one event. Events must arrive in non-decreasing `time` order
  /// (the transport guarantees this per stream); out-of-order events are
  /// clamped to the last seen time to keep range queries correct.
  void append(core::LogEvent event);
  void append_batch(std::vector<core::LogEvent> events);

  std::vector<core::LogEvent> query(const LogQuery& q) const;
  std::size_t count(const LogQuery& q) const { return query(q).size(); }

  /// Occurrence counts per time bucket (Splunk-style histogram).
  std::vector<core::TimedValue> count_by_bucket(const LogQuery& q,
                                                core::Duration bucket) const;

  std::size_t size() const;
  /// Total events at each severity (dashboard summary row).
  std::vector<std::size_t> severity_histogram() const;

  /// Persist all events (binary frames, lossless) so log history survives
  /// restarts; the token index is rebuilt on load. Loading appends into
  /// `out` (which is not movable — it owns a mutex).
  core::Status save_to_file(const std::string& path) const;
  static core::Status load_from_file(const std::string& path, LogStore& out);

 private:
  bool matches(const core::LogEvent& e, const LogQuery& q) const;

  mutable std::mutex mu_;
  std::vector<core::LogEvent> events_;
  std::unordered_map<std::string, std::vector<std::uint32_t>> token_index_;
  core::TimePoint last_time_ = INT64_MIN;
};

}  // namespace hpcmon::store
