#include "core/priority.hpp"

namespace hpcmon::core {

std::string_view to_string(Priority p) {
  switch (p) {
    case Priority::kCritical: return "critical";
    case Priority::kStandard: return "standard";
    case Priority::kBulk: return "bulk";
  }
  return "?";
}

std::string_view to_string(DegradationMode m) {
  switch (m) {
    case DegradationMode::kNormal: return "NORMAL";
    case DegradationMode::kShedBulk: return "SHED_BULK";
    case DegradationMode::kSummarize: return "SUMMARIZE";
    case DegradationMode::kQuarantine: return "QUARANTINE";
  }
  return "?";
}

}  // namespace hpcmon::core
