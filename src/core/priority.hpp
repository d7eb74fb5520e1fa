// Priority classes for metrics and the storm-mode degradation ladder.
//
// The paper's sites all hit the same failure shape: monitoring is most
// needed exactly when the machine is melting down (log storms, congestion
// cascades, filesystem brownouts), yet naive collectors fall over or —
// worse — silently drop the tier-1 signals operators steer by (Secs.
// III-IV). hpcmon makes the triage explicit: every metric family carries a
// Priority, and every shedding decision in the stack is priority-aware.
//
//   kCritical  never dropped anywhere in the stack. Queue-full admission
//              falls back to backpressure, eviction passes over it, and the
//              WAL has already made it durable before ingest sees it.
//   kStandard  degraded gracefully: downsampled on ingest under SUMMARIZE,
//              shed entirely only under QUARANTINE.
//   kBulk      sheds first: dropped at the ingest door from SHED_BULK on,
//              evicted first under queue pressure in any mode.
//
// DegradationMode is the closed-loop ladder the DegradationController
// (resilience/degradation.hpp) walks with hysteresis; it lives here because
// both the ingest tier (enforcement) and the resilience tier (control) need
// it without depending on each other.
#pragma once

#include <cstdint>
#include <string_view>

namespace hpcmon::core {

enum class Priority : std::uint8_t {
  kCritical = 0,
  kStandard = 1,
  kBulk = 2,
};
inline constexpr std::size_t kPriorityClasses = 3;

/// Tiered storm modes, ordered by severity; comparisons rely on the order.
enum class DegradationMode : std::uint8_t {
  kNormal = 0,      // everything flows
  kShedBulk = 1,    // bulk dropped at the ingest door
  kSummarize = 2,   // + standard downsampled-on-ingest (per-series stride)
  kQuarantine = 3,  // + standard shed entirely; only critical flows
};
inline constexpr std::size_t kDegradationModes = 4;

std::string_view to_string(Priority p);
std::string_view to_string(DegradationMode m);

}  // namespace hpcmon::core
