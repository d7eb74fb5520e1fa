// core::topic_match edge cases: the one matcher for dotted names, used by
// the serve tier's live subscriptions. '#' at the start, middle, and end;
// '*' within one segment; empty segments; literal-only patterns.
#include "core/topic.hpp"

#include <gtest/gtest.h>

namespace hpcmon {
namespace {

using core::topic_match;

TEST(TopicMatch, LiteralOnlyPatterns) {
  EXPECT_TRUE(topic_match("node.power_w", "node.power_w"));
  EXPECT_FALSE(topic_match("node.power_w", "node.power"));
  EXPECT_FALSE(topic_match("node.power_w", "node.power_w.cab0"));
  EXPECT_FALSE(topic_match("node.power_w.cab0", "node.power_w"));
  EXPECT_TRUE(topic_match("", ""));
  EXPECT_FALSE(topic_match("", "a"));
  EXPECT_FALSE(topic_match("a", ""));
}

TEST(TopicMatch, HashAtEnd) {
  EXPECT_TRUE(topic_match("node.#", "node"));  // '#' matches ZERO segments
  EXPECT_TRUE(topic_match("node.#", "node.power_w"));
  EXPECT_TRUE(topic_match("node.#", "node.power_w.cab0.chassis1"));
  EXPECT_FALSE(topic_match("node.#", "link.power_w"));
  EXPECT_TRUE(topic_match("#", ""));
  EXPECT_TRUE(topic_match("#", "anything.at.all"));
}

TEST(TopicMatch, HashAtStart) {
  EXPECT_TRUE(topic_match("#.power_w", "power_w"));
  EXPECT_TRUE(topic_match("#.power_w", "node.power_w"));
  EXPECT_TRUE(topic_match("#.power_w", "cab0.node.power_w"));
  EXPECT_FALSE(topic_match("#.power_w", "node.power_w.extra"));
}

TEST(TopicMatch, HashInMiddle) {
  EXPECT_TRUE(topic_match("node.#.stalls", "node.stalls"));
  EXPECT_TRUE(topic_match("node.#.stalls", "node.hsn.stalls"));
  EXPECT_TRUE(topic_match("node.#.stalls", "node.hsn.link.0.stalls"));
  EXPECT_FALSE(topic_match("node.#.stalls", "node.hsn.errors"));
  // Two hashes: still fine (backtracking).
  EXPECT_TRUE(topic_match("#.hsn.#", "a.b.hsn.c.d"));
  EXPECT_TRUE(topic_match("#.hsn.#", "hsn"));
  EXPECT_FALSE(topic_match("#.hsn.#", "a.b.c"));
}

TEST(TopicMatch, StarMatchesExactlyOneSegment) {
  // AMQP semantics: `*` never crosses a `.` boundary.
  EXPECT_TRUE(topic_match("samples.*.power", "samples.node.power"));
  EXPECT_FALSE(topic_match("samples.*.power", "samples.node.c0-0.power"));
  EXPECT_FALSE(topic_match("samples.*", "samples.node.c0-0"));
  EXPECT_FALSE(topic_match("*", "samples.node"));
  EXPECT_TRUE(topic_match("*", "samples"));
  // Glob characters still work WITHIN a segment.
  EXPECT_TRUE(topic_match("samples.node.c0-*", "samples.node.c0-0c1s3n2"));
  EXPECT_FALSE(topic_match("samples.node.c0-*", "samples.node.c1-0"));
  EXPECT_TRUE(topic_match("logs.hw?", "logs.hw1"));
}

TEST(TopicMatch, HashMatchesZeroOrMoreSegments) {
  EXPECT_TRUE(topic_match("#", "samples.node.c0-0"));
  EXPECT_TRUE(topic_match("#", "samples"));
  EXPECT_TRUE(topic_match("logs.#", "logs.hardware.gpu"));
  EXPECT_TRUE(topic_match("logs.#", "logs"));  // zero segments
  EXPECT_FALSE(topic_match("logs.#", "samples.node"));
  EXPECT_TRUE(topic_match("samples.#.power", "samples.power"));
  EXPECT_TRUE(topic_match("samples.#.power", "samples.node.c0-0.power"));
  EXPECT_FALSE(topic_match("samples.#.power", "samples.node.temp"));
  // `#` composes with `*`: any depth, then one node segment.
  EXPECT_TRUE(topic_match("#.c0-*", "samples.node.c0-0"));
  EXPECT_FALSE(topic_match("#.c0-*", "samples.node"));
}

TEST(TopicMatch, StarAndQuestionStayWithinSegments) {
  EXPECT_TRUE(topic_match("node.*", "node.power_w"));
  EXPECT_FALSE(topic_match("node.*", "node.power_w.cab0"));  // '*' != '#'
  EXPECT_TRUE(topic_match("*.power_w", "node.power_w"));
  EXPECT_TRUE(topic_match("node.p?wer_w", "node.power_w"));
  EXPECT_FALSE(topic_match("node.p?wer_w", "node.pwer_w"));
  EXPECT_TRUE(topic_match("node.pow*", "node.power_w"));
}

TEST(TopicMatch, EmptySegments) {
  // "a..b" has an empty middle segment; it is an ordinary segment.
  EXPECT_TRUE(topic_match("a..b", "a..b"));
  EXPECT_FALSE(topic_match("a..b", "a.b"));
  EXPECT_FALSE(topic_match("a.b", "a..b"));
  EXPECT_TRUE(topic_match("a.*.b", "a..b"));   // '*' matches the empty run
  EXPECT_FALSE(topic_match("a.?.b", "a..b"));  // '?' needs one char
  EXPECT_TRUE(topic_match("a.#.b", "a..b"));   // '#' absorbs it
  // Leading/trailing dots create empty first/last segments.
  EXPECT_TRUE(topic_match(".a", ".a"));
  EXPECT_FALSE(topic_match(".a", "a"));
  EXPECT_TRUE(topic_match("a.", "a."));
  EXPECT_FALSE(topic_match("a", "a."));
}

TEST(TopicMatch, SerchSeriesNameShapes) {
  // Serve subscriptions match "metric@component" series names; '@' is an
  // ordinary character to the matcher.
  EXPECT_TRUE(topic_match("node.power_w@*", "node.power_w@node-3"));
  EXPECT_TRUE(topic_match("node.#", "node.power_w@node-3"));
  EXPECT_FALSE(topic_match("node.power_w@node-4", "node.power_w@node-3"));
}

}  // namespace
}  // namespace hpcmon
