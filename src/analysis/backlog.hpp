// Batch-queue backlog analysis (NERSC/CSC, Sec. II.3/II.4).
//
// NERSC "monitors the batch queue backlog - large or sudden changes in
// outstanding demand can indicate for example a spike in jobs that fail
// immediately upon starting (quickly emptying the queue) or a blockage in
// the queue (quickly filling it)". BacklogAnalyzer classifies queue-depth
// series into those regimes; CSC's wait-time estimate is provided as a
// simple Little's-law projection.
#pragma once

#include <string>
#include <vector>

#include "core/time.hpp"

namespace hpcmon::analysis {

enum class BacklogSignal : std::uint8_t {
  kNormal,
  kRapidDrain,   // queue emptying abnormally fast (failure storm?)
  kRapidFill,    // queue filling abnormally fast (blockage?)
};

std::string_view to_string(BacklogSignal signal);

struct BacklogEvent {
  core::TimePoint time = 0;
  BacklogSignal signal = BacklogSignal::kNormal;
  double rate_jobs_per_min = 0.0;  // signed depth change rate
  double depth = 0.0;
};

struct BacklogParams {
  /// |d(depth)/dt| in jobs/minute that flags an event.
  double rate_threshold = 3.0;
  /// Slope estimation window (samples).
  std::size_t window = 5;
};

/// Scan a queue-depth series for abnormal fill/drain episodes (one event per
/// episode, fired at its first sample).
std::vector<BacklogEvent> detect_backlog_events(
    const std::vector<core::TimedValue>& depth_series,
    const BacklogParams& params = {});

/// Expected wait for a newly submitted job (CSC's user-facing estimate):
/// queue_depth * mean_service_time / running_slots, in seconds.
double estimate_wait_seconds(double queue_depth, double mean_runtime_s,
                             double running_jobs);

}  // namespace hpcmon::analysis
