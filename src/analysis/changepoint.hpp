// Change-point (onset) detection for benchmark trending.
//
// Fig 2 (NERSC): "occurrences and onset of performance problems are apparent
// in visualizations tracking performance over time". detect_onsets finds
// level shifts in a probe-result series by comparing a trailing window's
// mean against a reference (baseline) window's distribution — the analytic
// equivalent of the staff eyeballing the plot.
#pragma once

#include <vector>

#include "core/time.hpp"

namespace hpcmon::analysis {

struct Onset {
  core::TimePoint time = 0;     // first sample of the shifted regime
  double before_mean = 0.0;
  double after_mean = 0.0;
  double shift_sigma = 0.0;     // |after-before| in baseline stddevs
};

struct OnsetParams {
  std::size_t baseline = 12;  // reference window length (samples)
  std::size_t recent = 4;     // trailing window length (samples)
  double threshold_sigma = 4.0;
  double min_rel_shift = 0.10;  // also require >=10% relative change
};

/// Scan a series for sustained level shifts (either direction). After an
/// onset fires, the baseline restarts in the new regime so each shift is
/// reported once.
std::vector<Onset> detect_onsets(const std::vector<core::TimedValue>& series,
                                 const OnsetParams& params = {});

}  // namespace hpcmon::analysis
