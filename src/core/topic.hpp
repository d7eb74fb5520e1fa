// AMQP-style topic matching over dot-separated segments.
//
// The one matcher for every layer that routes by dotted name, so a pattern
// means the same thing wherever it is written; today that is the serve
// tier's live-subscription patterns (a network client subscribing to
// "node.power_w.#"). Semantics: '#' matches zero or more whole segments;
// within a segment, '*' and '?' glob without crossing dots, so a bare '*'
// segment matches exactly one segment. Empty segments (from "a..b" or a
// leading / trailing dot) are ordinary zero-length segments: only another
// empty segment, '*', '?'-free globs matching "", or '#' can match them.
#pragma once

#include <string_view>

namespace hpcmon::core {

/// True when `topic` matches the pattern (see file comment for semantics).
bool topic_match(std::string_view pattern, std::string_view topic);

}  // namespace hpcmon::core
