// SEC-style log rule engine.
//
// "Cray systems more generally use SEC, which can trigger events, such as
// alerts, upon matching conditions ... typically via regular-expression
// matching" (Sec. III-C / IV-C). RuleEngine implements the four rule shapes
// production SEC configs actually use:
//   kSingle     match -> fire
//   kPair       A then B within a window -> fire (event propagation chains)
//   kAbsence    A without B within a window -> fire (lost recovery)
//   kThreshold  N matches within a window -> fire (event storms)
// with per-rule suppression so storms don't re-fire every line.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/log_event.hpp"
#include "core/time.hpp"

namespace hpcmon::analysis {

enum class RuleKind : std::uint8_t { kSingle, kPair, kAbsence, kThreshold };

/// A fired rule, ready to become an alert.
struct RuleMatch {
  std::string rule_name;
  core::TimePoint time = 0;
  core::ComponentId component = core::kNoComponent;
  std::string detail;
};

struct Rule {
  std::string name;
  RuleKind kind = RuleKind::kSingle;
  /// Glob over the message ('*'/'?'); empty matches everything.
  std::string pattern;
  /// Only consider events at least this severe (numerically <=).
  std::optional<core::Severity> max_severity;
  std::optional<core::LogFacility> facility;
  /// Second pattern for kPair ("then B") and kAbsence ("expect B").
  std::string pattern_b;
  /// Window for kPair/kAbsence/kThreshold.
  core::Duration window = core::kMinute;
  /// Occurrence count for kThreshold.
  std::size_t count = 10;
  /// Re-fire suppression: identical (rule, component) fires are swallowed
  /// for this long (0 = no suppression).
  core::Duration suppress = 0;
  /// kPair/kAbsence/kThreshold: require B / counts on the same component.
  bool same_component = true;
};

class RuleEngine {
 public:
  void add_rule(Rule rule);
  std::size_t rule_count() const { return rules_.size(); }

  /// Feed events in time order. Returns matches fired by this event,
  /// including kAbsence expirations due at or before this event's time.
  std::vector<RuleMatch> process(const core::LogEvent& event);

  /// Flush kAbsence rules whose windows expire at or before `now` (call at
  /// end of stream or periodically; absence can only otherwise be noticed
  /// when a later event arrives).
  std::vector<RuleMatch> advance_time(core::TimePoint now);

 private:
  struct PendingPair {      // waiting for B (kPair) or expecting B (kAbsence)
    core::TimePoint deadline = 0;
    core::ComponentId component = core::kNoComponent;
    core::TimePoint started = 0;
  };
  struct RuleState {
    Rule rule;
    std::deque<PendingPair> pending;
    // kThreshold: recent match times (per component matched loosely).
    std::deque<std::pair<core::TimePoint, core::ComponentId>> recent;
    // Suppression memory: (component, last fire time).
    std::vector<std::pair<core::ComponentId, core::TimePoint>> last_fired;
  };

  bool matches(const Rule& r, const core::LogEvent& e,
               const std::string& pattern) const;
  bool suppressed(RuleState& rs, core::ComponentId c, core::TimePoint t) const;
  void note_fired(RuleState& rs, core::ComponentId c, core::TimePoint t);

  std::vector<RuleState> rules_;
};

/// A starter rule set covering the events the simulated platform emits
/// (link failures without recovery, GPU DBE storms, MDS saturation, ...).
std::vector<Rule> standard_platform_rules();

}  // namespace hpcmon::analysis
