#include "analysis/rules.hpp"

#include <algorithm>

#include "core/strings.hpp"

namespace hpcmon::analysis {

using core::ComponentId;
using core::LogEvent;
using core::TimePoint;

void RuleEngine::add_rule(Rule rule) {
  RuleState rs;
  rs.rule = std::move(rule);
  rules_.push_back(std::move(rs));
}

bool RuleEngine::matches(const Rule& r, const LogEvent& e,
                         const std::string& pattern) const {
  if (r.max_severity && e.severity > *r.max_severity) return false;
  if (r.facility && e.facility != *r.facility) return false;
  if (!pattern.empty() && !core::glob_match(pattern, e.message)) return false;
  return true;
}

bool RuleEngine::suppressed(RuleState& rs, ComponentId c, TimePoint t) const {
  if (rs.rule.suppress <= 0) return false;
  for (const auto& [comp, when] : rs.last_fired) {
    if (comp == c && t - when < rs.rule.suppress) return true;
  }
  return false;
}

void RuleEngine::note_fired(RuleState& rs, ComponentId c, TimePoint t) {
  for (auto& [comp, when] : rs.last_fired) {
    if (comp == c) {
      when = t;
      return;
    }
  }
  rs.last_fired.emplace_back(c, t);
}

std::vector<RuleMatch> RuleEngine::process(const LogEvent& e) {
  std::vector<RuleMatch> fired = advance_time(e.time);

  for (auto& rs : rules_) {
    auto& r = rs.rule;
    switch (r.kind) {
      case RuleKind::kSingle: {
        if (matches(r, e, r.pattern) && !suppressed(rs, e.component, e.time)) {
          fired.push_back({r.name, e.time, e.component, e.message});
          note_fired(rs, e.component, e.time);
        }
        break;
      }
      case RuleKind::kPair: {
        // B completes a pending A (fires); A opens a pending entry.
        if (matches(r, e, r.pattern_b)) {
          auto it = std::find_if(
              rs.pending.begin(), rs.pending.end(), [&](const PendingPair& p) {
                return (!r.same_component || p.component == e.component) &&
                       e.time <= p.deadline;
              });
          if (it != rs.pending.end()) {
            if (!suppressed(rs, e.component, e.time)) {
              fired.push_back({r.name, e.time, e.component,
                               core::strformat("pair completed after %s",
                                               core::format_duration(
                                                   e.time - it->started)
                                                   .c_str())});
              note_fired(rs, e.component, e.time);
            }
            rs.pending.erase(it);
            break;
          }
        }
        if (matches(r, e, r.pattern)) {
          rs.pending.push_back({e.time + r.window, e.component, e.time});
        }
        break;
      }
      case RuleKind::kAbsence: {
        // B cancels a pending expectation; expiry is handled by
        // advance_time().
        if (matches(r, e, r.pattern_b)) {
          auto it = std::find_if(
              rs.pending.begin(), rs.pending.end(), [&](const PendingPair& p) {
                return !r.same_component || p.component == e.component;
              });
          if (it != rs.pending.end()) {
            rs.pending.erase(it);
            break;
          }
        }
        if (matches(r, e, r.pattern)) {
          rs.pending.push_back({e.time + r.window, e.component, e.time});
        }
        break;
      }
      case RuleKind::kThreshold: {
        if (!matches(r, e, r.pattern)) break;
        const ComponentId key =
            r.same_component ? e.component : core::kNoComponent;
        rs.recent.emplace_back(e.time, key);
        while (!rs.recent.empty() &&
               rs.recent.front().first < e.time - r.window) {
          rs.recent.pop_front();
        }
        std::size_t n = 0;
        for (const auto& [t, c] : rs.recent) {
          if (c == key) ++n;
        }
        if (n >= r.count && !suppressed(rs, key, e.time)) {
          fired.push_back({r.name, e.time, e.component,
                           core::strformat("%zu matches within %s", n,
                                           core::format_duration(r.window)
                                               .c_str())});
          note_fired(rs, key, e.time);
        }
        break;
      }
    }
  }
  return fired;
}

std::vector<RuleMatch> RuleEngine::advance_time(TimePoint now) {
  std::vector<RuleMatch> fired;
  for (auto& rs : rules_) {
    if (rs.rule.kind != RuleKind::kAbsence) continue;
    while (!rs.pending.empty() && rs.pending.front().deadline <= now) {
      const auto p = rs.pending.front();
      rs.pending.pop_front();
      if (!suppressed(rs, p.component, p.deadline)) {
        fired.push_back({rs.rule.name, p.deadline, p.component,
                         "expected follow-up event never arrived"});
        note_fired(rs, p.component, p.deadline);
      }
    }
  }
  return fired;
}

std::vector<Rule> standard_platform_rules() {
  using S = core::Severity;
  using F = core::LogFacility;
  std::vector<Rule> rules;
  {
    Rule r;
    r.name = "hw_critical";
    r.kind = RuleKind::kSingle;
    r.max_severity = S::kCritical;
    r.facility = F::kHardware;
    r.suppress = 10 * core::kMinute;
    rules.push_back(r);
  }
  {
    Rule r;  // link failed but no recovery within 5 minutes
    r.name = "link_no_recovery";
    r.kind = RuleKind::kAbsence;
    r.pattern = "HSN link failed*";
    r.pattern_b = "HSN link recovered*";
    r.facility = F::kNetwork;
    r.window = 5 * core::kMinute;
    rules.push_back(r);
  }
  {
    Rule r;  // GPU DBE storm: many errors on one GPU within 30 min
    r.name = "gpu_dbe_storm";
    r.kind = RuleKind::kThreshold;
    r.pattern = "GPU double bit error*";
    r.window = 30 * core::kMinute;
    r.count = 3;
    r.suppress = core::kHour;
    rules.push_back(r);
  }
  {
    Rule r;  // filesystem saturation persisting
    r.name = "mds_saturated";
    r.kind = RuleKind::kThreshold;
    r.pattern = "MDS request queue saturated*";
    r.window = 10 * core::kMinute;
    r.count = 5;
    r.suppress = 30 * core::kMinute;
    rules.push_back(r);
  }
  {
    Rule r;  // health-check failure anywhere
    r.name = "health_failure";
    r.kind = RuleKind::kSingle;
    r.pattern = "health check failed*";
    r.facility = F::kHealth;
    r.suppress = 10 * core::kMinute;
    rules.push_back(r);
  }
  {
    Rule r;  // console log storm, machine-wide
    r.name = "console_storm";
    r.kind = RuleKind::kThreshold;
    r.facility = F::kConsole;
    r.max_severity = S::kWarning;
    r.window = core::kMinute;
    r.count = 50;
    r.same_component = false;
    r.suppress = 5 * core::kMinute;
    rules.push_back(r);
  }
  return rules;
}

}  // namespace hpcmon::analysis
