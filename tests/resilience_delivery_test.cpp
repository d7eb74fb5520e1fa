// ReliableDelivery: retries, bounded dead-letter queue, redelivery after
// recovery, exception containment, and FaultPlan-driven injection.
#include "resilience/delivery.hpp"

#include <gtest/gtest.h>

#include "resilience/fault.hpp"

namespace hpcmon::resilience {
namespace {

using core::Status;
using transport::Frame;

Frame make_frame(std::uint8_t tag) {
  Frame f;
  f.payload = {tag, 1, 2, 3};
  return f;
}

TEST(DeliveryTest, RetriesUntilTransientFailureClears) {
  int attempts = 0;
  ReliableDelivery d(
      [&](const Frame&) {
        return ++attempts < 3 ? Status::error("transient") : Status::ok();
      },
      {.max_attempts = 3});
  EXPECT_TRUE(d.deliver(make_frame(1)));
  EXPECT_EQ(attempts, 3);
  const auto snap = obs::snapshot_of(d);
  EXPECT_EQ(snap.counter("resilience.delivered_frames"), 1u);
  EXPECT_EQ(snap.counter("resilience.delivery_retries"), 2u);
  EXPECT_EQ(snap.counter("resilience.delivery_failures"), 0u);
  EXPECT_EQ(d.dead_letter_count(), 0u);
}

TEST(DeliveryTest, ExhaustedFramesAreDeadLettered) {
  ReliableDelivery d([](const Frame&) { return Status::error("down"); },
                     {.max_attempts = 2});
  EXPECT_FALSE(d.deliver(make_frame(1)));
  const auto snap = obs::snapshot_of(d);
  EXPECT_EQ(snap.counter("resilience.delivery_retries"), 1u);
  EXPECT_EQ(snap.counter("resilience.delivery_failures"), 1u);
  EXPECT_EQ(snap.counter("resilience.dead_letters"), 1u);
  ASSERT_EQ(d.dead_letter_count(), 1u);
  EXPECT_EQ(d.dead_letters().front().payload[0], 1);
}

TEST(DeliveryTest, DeadLetterQueueIsBounded) {
  ReliableDelivery d([](const Frame&) { return Status::error("down"); },
                     {.max_attempts = 1, .dead_letter_cap = 2});
  d.deliver(make_frame(1));
  d.deliver(make_frame(2));
  d.deliver(make_frame(3));  // evicts frame 1
  EXPECT_EQ(d.dead_letter_count(), 2u);
  const auto snap = obs::snapshot_of(d);
  EXPECT_EQ(snap.counter("resilience.dead_letter_evictions"), 1u);
  EXPECT_EQ(snap.counter("resilience.dead_letters"), 3u);
  EXPECT_EQ(d.dead_letters().front().payload[0], 2);
  EXPECT_EQ(d.dead_letters().back().payload[0], 3);
}

TEST(DeliveryTest, RedeliverFlushesQueueAfterRecovery) {
  bool down = true;
  ReliableDelivery d(
      [&](const Frame&) { return down ? Status::error("down") : Status::ok(); },
      {.max_attempts = 1});
  d.deliver(make_frame(1));
  d.deliver(make_frame(2));
  ASSERT_EQ(d.dead_letter_count(), 2u);
  // Still down: nothing redelivered, nothing lost.
  EXPECT_EQ(d.redeliver(), 0u);
  EXPECT_EQ(d.dead_letter_count(), 2u);
  down = false;
  EXPECT_EQ(d.redeliver(), 2u);
  EXPECT_EQ(d.dead_letter_count(), 0u);
  EXPECT_EQ(obs::snapshot_of(d).counter("resilience.redelivered"), 2u);
}

TEST(DeliveryTest, ThrowingDeliveryFunctionIsContained) {
  ReliableDelivery d(
      [](const Frame&) -> Status { throw std::runtime_error("boom"); },
      {.max_attempts = 2});
  EXPECT_FALSE(d.deliver(make_frame(1)));  // no exception escapes
  EXPECT_EQ(obs::snapshot_of(d).counter("resilience.delivery_failures"), 1u);
  EXPECT_EQ(d.dead_letter_count(), 1u);
}

TEST(DeliveryTest, FaultPlanDrivesInjectedFailures) {
  FaultSpec spec;
  spec.delivery_error_at = 1;
  FaultPlan plan(42, spec);
  int inner_calls = 0;
  ReliableDelivery d(faulty_deliver(
                         [&](const Frame&) {
                           ++inner_calls;
                           return Status::ok();
                         },
                         plan),
                     {.max_attempts = 2});
  // First attempt eats the injected fault; the retry goes through.
  EXPECT_TRUE(d.deliver(make_frame(1)));
  const auto snap = obs::snapshot_of(d);
  EXPECT_EQ(snap.counter("resilience.delivery_retries"), 1u);
  EXPECT_EQ(plan.injected().delivery_errors, 1u);
  EXPECT_EQ(inner_calls, 1);
  EXPECT_EQ(snap.counter("resilience.delivered_frames"), 1u);
}

}  // namespace
}  // namespace hpcmon::resilience
