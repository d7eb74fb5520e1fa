// Codec (binary round-trip, lossy text path), EventRouter, Channel.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "core/registry.hpp"
#include "transport/channel.hpp"
#include "transport/codec.hpp"
#include "transport/event_router.hpp"

namespace hpcmon::transport {
namespace {

using core::ComponentId;
using core::JobId;
using core::LogEvent;
using core::SampleBatch;
using core::SeriesId;

SampleBatch make_batch() {
  SampleBatch b;
  b.sweep_time = 42 * core::kSecond;
  b.origin = ComponentId{3};
  for (int i = 0; i < 20; ++i) {
    b.samples.push_back({SeriesId{static_cast<std::uint32_t>(i)},
                         b.sweep_time + i, i * 1.5});
  }
  return b;
}

std::vector<LogEvent> make_logs() {
  std::vector<LogEvent> events;
  for (int i = 0; i < 5; ++i) {
    LogEvent e;
    e.time = i * core::kSecond;
    e.local_time = e.time + 123;  // drifted local stamp
    e.component = ComponentId{static_cast<std::uint32_t>(i)};
    e.facility = core::LogFacility::kHardware;
    e.severity = core::Severity::kError;
    e.job = JobId{static_cast<std::uint64_t>(100 + i)};
    e.message = "GPU double bit error count " + std::to_string(i);
    events.push_back(e);
  }
  return events;
}

TEST(CodecTest, SamplesRoundTripLosslessly) {
  const auto batch = make_batch();
  const auto frame = encode_samples(batch);
  EXPECT_EQ(frame.type, FrameType::kSamples);
  const auto decoded = decode_samples(frame);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().sweep_time, batch.sweep_time);
  EXPECT_EQ(decoded.value().origin, batch.origin);
  EXPECT_EQ(decoded.value().samples, batch.samples);
}

TEST(CodecTest, LogsRoundTripLosslessly) {
  const auto events = make_logs();
  const auto frame = encode_logs(events);
  const auto decoded = decode_logs(frame);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), events);  // every field, including job + local time
}

TEST(CodecTest, DecodeRejectsWrongTypeAndTruncation) {
  const auto frame = encode_samples(make_batch());
  EXPECT_FALSE(decode_logs(frame).is_ok());
  Frame truncated = frame;
  truncated.payload.resize(truncated.payload.size() / 2);
  EXPECT_FALSE(decode_samples(truncated).is_ok());
  Frame empty;
  empty.type = FrameType::kSamples;
  EXPECT_FALSE(decode_samples(empty).is_ok());
}

TEST(CodecTest, DecodeRejectsHugeCountBeforeSizingTheBatch) {
  // A header claiming 2^32-1 records over a three-record body: decoding must
  // fail on the body length, not try to reserve ~100 GB for the samples.
  Frame frame = encode_samples(SampleBatch{});
  ASSERT_EQ(frame.payload.size(), kSampleHeaderBytes);
  const std::uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(frame.payload.data() + kSampleCountOffset, &huge, sizeof(huge));
  frame.payload.resize(kSampleHeaderBytes + 3 * kSampleRecordBytes);
  const auto decoded = decode_samples(frame);
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.message(), "truncated sample frame body");
}

TEST(CodecTest, TextPathIsLossyExactlyAsThePaperWarns) {
  core::MetricRegistry reg;
  const auto comp = reg.register_component(
      {"c0-0c0s0n0", core::ComponentKind::kNode, core::kNoComponent});
  auto events = make_logs();
  events[0].component = comp;
  const auto line = format_text(events[0], reg);
  const auto parsed = parse_text(line, reg);
  ASSERT_TRUE(parsed.has_value());
  // Preserved: time, component, facility, severity, message.
  EXPECT_EQ(parsed->time, events[0].time);
  EXPECT_EQ(parsed->component, events[0].component);
  EXPECT_EQ(parsed->facility, events[0].facility);
  EXPECT_EQ(parsed->severity, events[0].severity);
  EXPECT_EQ(parsed->message, events[0].message);
  // Lost in translation (Sec. IV-A): job attribution and local clock stamp.
  EXPECT_EQ(parsed->job, core::kNoJob);
  EXPECT_NE(parsed->job, events[0].job);
  EXPECT_EQ(parsed->local_time, parsed->time);
  EXPECT_NE(parsed->local_time, events[0].local_time);
}

TEST(CodecTest, ParseTextRejectsGarbage) {
  core::MetricRegistry reg;
  EXPECT_FALSE(parse_text("not a log line", reg).has_value());
  EXPECT_FALSE(parse_text("", reg).has_value());
}

TEST(RouterTest, TypeDispatchAndRawTap) {
  EventRouter router;
  int samples = 0;
  int logs = 0;
  int raw = 0;
  router.subscribe(FrameType::kSamples, [&](const Frame&) { ++samples; });
  router.subscribe(FrameType::kLogs, [&](const Frame&) { ++logs; });
  router.subscribe_raw([&](const Frame&) { ++raw; });
  router.publish(encode_samples(make_batch()));
  router.publish(encode_logs(make_logs()));
  EXPECT_EQ(samples, 1);
  EXPECT_EQ(logs, 1);
  EXPECT_EQ(raw, 2);
  const auto snap = obs::snapshot_of(router);
  EXPECT_EQ(snap.counter("transport.frames"), 2u);
  EXPECT_GT(snap.counter("transport.bytes"), 0u);
  EXPECT_EQ(snap.counter("transport.unrouted_frames"), 0u);
}

TEST(RouterTest, ForwardingTree) {
  EventRouter leaf;
  EventRouter mid;
  EventRouter root;
  leaf.forward_to(mid);
  mid.forward_to(root);
  int received = 0;
  root.subscribe(FrameType::kSamples, [&](const Frame&) { ++received; });
  leaf.publish(encode_samples(make_batch()));
  EXPECT_EQ(received, 1);
  EXPECT_EQ(obs::snapshot_of(root).counter("transport.frames"), 1u);
}

TEST(RouterTest, DroppedCountsUndeliveredFrames) {
  EventRouter router;
  router.publish(encode_samples(make_batch()));
  EXPECT_EQ(obs::snapshot_of(router).counter("transport.unrouted_frames"), 1u);
}

TEST(RouterTest, ThrowingSubscriberDoesNotHaltFanOut) {
  EventRouter router;
  int before = 0;
  int after = 0;
  int raw = 0;
  router.subscribe(FrameType::kSamples, [&](const Frame&) { ++before; });
  router.subscribe(FrameType::kSamples, [&](const Frame&) -> void {
    throw std::runtime_error("bad consumer");
  });
  router.subscribe(FrameType::kSamples, [&](const Frame&) { ++after; });
  router.subscribe_raw([&](const Frame&) { ++raw; });
  router.publish(encode_samples(make_batch()));
  router.publish(encode_samples(make_batch()));
  // Subscribers past the throwing one still received every frame.
  EXPECT_EQ(before, 2);
  EXPECT_EQ(after, 2);
  EXPECT_EQ(raw, 2);
  const auto snap = obs::snapshot_of(router);
  EXPECT_EQ(snap.counter("transport.subscriber_failures"), 2u);
  EXPECT_EQ(snap.counter("transport.unrouted_frames"), 0u);
}

TEST(RouterTest, ThrowingRawTapIsContained) {
  EventRouter router;
  int delivered = 0;
  router.subscribe_raw(
      [](const Frame&) -> void { throw std::runtime_error("tap died"); });
  router.subscribe(FrameType::kSamples, [&](const Frame&) { ++delivered; });
  router.publish(encode_samples(make_batch()));
  EXPECT_EQ(delivered, 1);
  const auto snap = obs::snapshot_of(router);
  EXPECT_EQ(snap.counter("transport.subscriber_failures"), 1u);
}

TEST(ChannelTest, FifoAndClose) {
  Channel<int> ch(4);
  EXPECT_TRUE(ch.try_push(1));
  EXPECT_TRUE(ch.try_push(2));
  EXPECT_EQ(ch.pop(), 1);
  EXPECT_EQ(ch.pop(), 2);
  EXPECT_FALSE(ch.try_pop().has_value());
  ch.close();
  EXPECT_FALSE(ch.push(3));
  EXPECT_FALSE(ch.pop().has_value());
}

TEST(ChannelTest, BoundedCapacity) {
  Channel<int> ch(2);
  EXPECT_TRUE(ch.try_push(1));
  EXPECT_TRUE(ch.try_push(2));
  EXPECT_FALSE(ch.try_push(3));  // full
  ch.try_pop();
  EXPECT_TRUE(ch.try_push(3));
}

TEST(ChannelTest, PopForTimesOutOnEmptyAndReturnsWhenFed) {
  using namespace std::chrono_literals;
  Channel<int> ch(2);
  EXPECT_FALSE(ch.pop_for(1ms).has_value());  // empty: times out
  int v = 7;
  EXPECT_TRUE(ch.push_for(v, 0ms));
  const auto got = ch.pop_for(1h);  // returns immediately, no 1h wait
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 7);
}

TEST(ChannelTest, PushForTimesOutWhenFullWithoutConsumingValue) {
  using namespace std::chrono_literals;
  Channel<std::string> ch(1);
  std::string first = "first";
  std::string second = "second";
  EXPECT_TRUE(ch.push_for(first, 0ms));
  // Full: timed push fails AND leaves the value intact so the caller can
  // apply an overload policy (retry, drop-oldest, reject) with the same item.
  EXPECT_FALSE(ch.push_for(second, 1ms));
  EXPECT_EQ(second, "second");
  ch.try_pop();
  EXPECT_TRUE(ch.push_for(second, 0ms));
  EXPECT_EQ(ch.pop_for(0ms), "second");
}

TEST(ChannelTest, CloseWakesTimedWaiters) {
  using namespace std::chrono_literals;
  Channel<int> ch(1);
  // A pop_for blocked on an empty channel returns nullopt promptly on close
  // rather than sleeping out its full timeout.
  std::thread closer([&ch] {
    std::this_thread::sleep_for(5ms);
    ch.close();
  });
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(ch.pop_for(10s).has_value());
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 5s);
  closer.join();
  // After close: timed push always fails, timed pop drains then fails.
  int v = 1;
  EXPECT_FALSE(ch.push_for(v, 10s));
  EXPECT_FALSE(ch.pop_for(0ms).has_value());
}

TEST(ChannelTest, CloseWithBacklogDrainsThroughPopFor) {
  using namespace std::chrono_literals;
  Channel<int> ch(4);
  int a = 1;
  int b = 2;
  ch.push_for(a, 0ms);
  ch.push_for(b, 0ms);
  ch.close();
  EXPECT_EQ(ch.pop_for(0ms), 1);  // close never loses queued items
  EXPECT_EQ(ch.pop_for(0ms), 2);
  EXPECT_FALSE(ch.pop_for(1ms).has_value());
}

TEST(ChannelTest, TimedCrossThreadHandoff) {
  using namespace std::chrono_literals;
  Channel<int> ch(1);
  std::thread producer([&ch] {
    for (int i = 0; i < 100; ++i) {
      int v = i;
      while (!ch.push_for(v, 1ms)) {
      }
    }
    ch.close();
  });
  int expected = 0;
  for (;;) {
    const auto v = ch.pop_for(1ms);
    if (v.has_value()) {
      EXPECT_EQ(*v, expected++);
    } else if (ch.closed() && ch.size() == 0) {
      break;  // close happens-after every push, so empty+closed means done
    }
  }
  producer.join();
  EXPECT_EQ(expected, 100);
}

TEST(ChannelTest, CrossThreadTransfer) {
  Channel<int> ch(8);
  std::thread producer([&ch] {
    for (int i = 0; i < 1000; ++i) ch.push(i);
    ch.close();
  });
  int expected = 0;
  while (auto v = ch.pop()) {
    EXPECT_EQ(*v, expected++);
  }
  producer.join();
  EXPECT_EQ(expected, 1000);
}

}  // namespace
}  // namespace hpcmon::transport
