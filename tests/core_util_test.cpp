// Config, CSV, Result, Rng, DriftClock.
#include <gtest/gtest.h>

#include "core/clock.hpp"
#include "core/config.hpp"
#include "core/csv.hpp"
#include "core/result.hpp"
#include "core/rng.hpp"

namespace hpcmon::core {
namespace {

TEST(ConfigTest, ParseKeepsRawValues) {
  const auto r = Config::parse(
      "# comment\n"
      "interval = 60\n"
      "threshold = 2.5\n"
      "enabled = true\n"
      "name = hot store  # trailing comment\n"
      "\n");
  ASSERT_TRUE(r.is_ok());
  const auto& c = r.value();
  const Config::Entries expected = {{"enabled", "true"},
                                    {"interval", "60"},
                                    {"name", "hot store"},
                                    {"threshold", "2.5"}};
  EXPECT_EQ(c.entries(), expected);
  EXPECT_EQ(c.get_string("name", ""), "hot store");
  EXPECT_FALSE(c.contains("missing"));
  EXPECT_EQ(c.get_string("missing", "dflt"), "dflt");
}

TEST(ConfigTest, ParseErrors) {
  EXPECT_FALSE(Config::parse("no equals sign").is_ok());
  EXPECT_FALSE(Config::parse("= value").is_ok());
}

// Config stores text; the strict typed parse lives with its consumer
// (stack_options_test covers malformed values).
TEST(ConfigTest, SetKeepsRawTextAndLaterLayersOverride) {
  Config c;
  c.set("x", "not_a_number");
  EXPECT_EQ(c.entries().at("x"), "not_a_number");
  c.set_int("x", 7);
  EXPECT_EQ(c.get_string("x", ""), "7");
  EXPECT_EQ(c.size(), 1u);
}

TEST(ConfigTest, RoundTripThroughDump) {
  Config c;
  c.set_int("a", 42);
  c.set_bool("b", true);
  const auto r = Config::parse(c.dump());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().entries(), c.entries());
  EXPECT_EQ(r.value().get_string("a", ""), "42");
  EXPECT_EQ(r.value().get_string("b", ""), "true");
}

TEST(CsvTest, EscapingAndRows) {
  CsvWriter w;
  w.field("plain");
  w.field("has,comma");
  w.field("has\"quote");
  w.number(static_cast<std::int64_t>(3));
  w.number(1.5);
  w.end_row();
  EXPECT_EQ(w.str(), "plain,\"has,comma\",\"has\"\"quote\",3,1.5\n");
}

TEST(ResultTest, OkAndError) {
  Result<int> ok(5);
  EXPECT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.value(), 5);
  auto err = Result<int>::error("boom");
  EXPECT_FALSE(err.is_ok());
  EXPECT_EQ(err.message(), "boom");
  EXPECT_TRUE(Status::ok().is_ok());
  EXPECT_FALSE(Status::error("x").is_ok());
}

TEST(RngTest, DeterministicAndForkIndependent) {
  Rng a(7), b(7);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
  Rng c(7);
  auto child = c.fork();
  // Child stream differs from a fresh parent's continued stream.
  Rng d(7);
  d.fork();
  EXPECT_DOUBLE_EQ(c.uniform(), d.uniform());  // parents stay in sync
  (void)child;
}

TEST(RngTest, DistributionSanity) {
  Rng rng(123);
  double sum = 0.0;
  for (int i = 0; i < 4000; ++i) sum += rng.normal(5.0, 1.0);
  EXPECT_NEAR(sum / 4000.0, 5.0, 0.1);
  for (int i = 0; i < 100; ++i) {
    const auto v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
  }
}

TEST(SimClockTest, MonotoneAdvance) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0);
  clock.advance_by(kSecond);
  clock.advance_to(5 * kSecond);
  EXPECT_EQ(clock.now(), 5 * kSecond);
}

TEST(DriftClockTest, SkewAccumulates) {
  DriftClock::Params p;
  p.offset0 = 1000;
  p.skew_ppm = 100.0;  // 100us per second
  DriftClock dc(p, Rng(1));
  EXPECT_EQ(dc.local_time(0), 1000);
  // After 100 seconds: offset0 + 100ppm*100s = 1000 + 10000us.
  EXPECT_NEAR(static_cast<double>(dc.local_time(100 * kSecond) -
                                  100 * kSecond),
              11000.0, 1.0);
}

TEST(DriftClockTest, RandomWalkMoves) {
  DriftClock::Params p;
  p.walk_step = kSecond;
  p.walk_sigma = 1000;
  DriftClock dc(p, Rng(42));
  const auto off1 = dc.current_offset(10 * kSecond);
  const auto off2 = dc.current_offset(200 * kSecond);
  EXPECT_NE(off1, off2);
}

}  // namespace
}  // namespace hpcmon::core
