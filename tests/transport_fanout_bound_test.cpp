// Bounded fan-out (BufferedSubscription): a slow consumer's pending queue
// must stay capped during a storm — shedding lowest class first, oldest
// first within a class — with every shed frame counted, instead of growing
// without bound and taking the router's process down with it.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "transport/codec.hpp"
#include "transport/event_router.hpp"

namespace hpcmon::transport {
namespace {

// A distinguishable samples frame: `tag` round-trips through sweep_time.
Frame sample_frame(int tag, core::Priority pri = core::Priority::kStandard) {
  core::SampleBatch b;
  b.sweep_time = (tag + 1) * core::kSecond;
  b.samples.push_back({core::SeriesId{1}, b.sweep_time, static_cast<double>(tag)});
  auto f = encode_samples(b);
  f.priority = pri;
  return f;
}

int tag_of(const Frame& f) {
  const auto d = decode_samples(f);
  EXPECT_TRUE(d.is_ok());
  return static_cast<int>(d.value().sweep_time / core::kSecond) - 1;
}

std::vector<int> drain_tags(BufferedSubscription& sub) {
  std::vector<int> tags;
  sub.drain([&](const Frame& f) { tags.push_back(tag_of(f)); });
  return tags;
}

TEST(FanoutBoundTest, PendingNeverExceedsCap) {
  EventRouter router;
  auto sub = router.subscribe_buffered(FrameType::kSamples, 4);
  for (int i = 0; i < 10; ++i) {
    router.publish(sample_frame(i));
    EXPECT_LE(sub->pending(), 4u);
  }
  EXPECT_EQ(sub->pending(), 4u);
  EXPECT_EQ(sub->dropped(), 6u);
  const auto snap = obs::snapshot_of(router);
  EXPECT_EQ(snap.counter("transport.fanout_dropped"), 6u);
  EXPECT_EQ(snap.gauge("transport.fanout_pending_hwm"), 4.0);
  // Same-class shedding keeps the freshest frames (oldest evicted first).
  EXPECT_EQ(drain_tags(*sub), (std::vector<int>{6, 7, 8, 9}));
}

TEST(FanoutBoundTest, EvictsLowestClassOldestFirst) {
  EventRouter router;
  auto sub = router.subscribe_buffered(FrameType::kSamples, 3);
  router.publish(sample_frame(0, core::Priority::kBulk));
  router.publish(sample_frame(1, core::Priority::kStandard));
  router.publish(sample_frame(2, core::Priority::kBulk));
  EXPECT_EQ(sub->pending(), 3u);
  // Full queue, standard arrives: the OLDEST bulk frame (0) goes first.
  router.publish(sample_frame(3, core::Priority::kStandard));
  // Critical arrives: the remaining bulk frame (2) goes.
  router.publish(sample_frame(4, core::Priority::kCritical));
  // Bulk arrives while everything pending outranks it: the incoming frame
  // itself is shed and the queue is untouched.
  router.publish(sample_frame(5, core::Priority::kBulk));
  EXPECT_EQ(sub->pending(), 3u);
  EXPECT_EQ(sub->dropped(), 3u);  // evicted 0 and 2, refused 5
  EXPECT_EQ(obs::snapshot_of(router).counter("transport.fanout_dropped"), 3u);
  // Survivors drain in arrival order; the critical frame survived.
  EXPECT_EQ(drain_tags(*sub), (std::vector<int>{1, 3, 4}));
}

TEST(FanoutBoundTest, DrainDeliversInOrderAndClears) {
  EventRouter router;
  auto sub = router.subscribe_buffered(FrameType::kSamples, 8);
  for (int i = 0; i < 5; ++i) router.publish(sample_frame(i));
  std::vector<int> tags;
  const auto delivered =
      sub->drain([&](const Frame& f) { tags.push_back(tag_of(f)); });
  EXPECT_EQ(delivered, 5u);
  EXPECT_EQ(tags, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(sub->pending(), 0u);
  EXPECT_EQ(sub->drain([](const Frame&) {}), 0u);
  EXPECT_EQ(sub->dropped(), 0u);  // a big enough queue sheds nothing
}

TEST(FanoutBoundTest, ThrowingDrainHandlerLosesOnlyItsFrame) {
  EventRouter router;
  auto sub = router.subscribe_buffered(FrameType::kSamples, 8);
  for (int i = 0; i < 3; ++i) router.publish(sample_frame(i));
  std::vector<int> tags;
  const auto delivered = sub->drain([&](const Frame& f) {
    const int tag = tag_of(f);
    if (tag == 1) throw std::runtime_error("bad consumer");
    tags.push_back(tag);
  });
  EXPECT_EQ(delivered, 3u);  // the throw consumed its frame
  EXPECT_EQ(tags, (std::vector<int>{0, 2}));
  EXPECT_EQ(sub->pending(), 0u);
}

TEST(FanoutBoundTest, OnlyMatchingTypeIsBuffered) {
  EventRouter router;
  auto sub = router.subscribe_buffered(FrameType::kSamples, 4);
  router.publish(sample_frame(0));
  Frame logs = encode_logs({});
  router.publish(logs);  // different type: not queued, but counted dropped
  EXPECT_EQ(sub->pending(), 1u);
  // The log frame had no taker.
  EXPECT_EQ(obs::snapshot_of(router).counter("transport.unrouted_frames"), 1u);
}

TEST(FanoutBoundTest, ZeroCapIsClampedToOne) {
  EventRouter router;
  auto sub = router.subscribe_buffered(FrameType::kSamples, 0);
  EXPECT_EQ(sub->max_pending(), 1u);
  router.publish(sample_frame(0));
  router.publish(sample_frame(1));
  EXPECT_EQ(sub->pending(), 1u);
  EXPECT_EQ(sub->dropped(), 1u);
  EXPECT_EQ(drain_tags(*sub), (std::vector<int>{1}));
}

}  // namespace
}  // namespace hpcmon::transport
