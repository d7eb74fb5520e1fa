#include "transport/event_router.hpp"

#include <algorithm>

namespace hpcmon::transport {

std::size_t BufferedSubscription::drain(
    const std::function<void(const Frame&)>& handler) {
  std::size_t delivered = 0;
  while (!queue_.empty()) {
    Frame f = std::move(queue_.front());
    queue_.pop_front();
    try {
      handler(f);
    } catch (const std::exception&) {
      // The frame it threw on is lost; the rest of the queue still drains.
    }
    ++delivered;
  }
  return delivered;
}

void BufferedSubscription::offer(const Frame& frame, EventRouter& router) {
  if (queue_.size() >= max_pending_) {
    // Evict the oldest frame of the lowest-priority class present. Priority
    // values order kCritical(0) < kStandard < kBulk, so "worst" = max value.
    auto worst = std::max_element(
        queue_.begin(), queue_.end(), [](const Frame& a, const Frame& b) {
          return static_cast<int>(a.priority) < static_cast<int>(b.priority);
        });
    if (worst == queue_.end() || worst->priority < frame.priority) {
      // Everything pending outranks (or ties better than) the newcomer:
      // shed the incoming frame instead.
      ++dropped_;
      router.fanout_dropped_.add();
      return;
    }
    // max_element returns the FIRST (oldest) of the worst class.
    queue_.erase(worst);
    ++dropped_;
    router.fanout_dropped_.add();
  }
  queue_.push_back(frame);
  router.fanout_pending_hwm_.update_max(static_cast<double>(queue_.size()));
}

void EventRouter::subscribe(FrameType type, Handler handler) {
  subscribers_.emplace_back(type, std::move(handler));
}

void EventRouter::subscribe_raw(Handler handler) {
  raw_taps_.push_back(std::move(handler));
}

std::shared_ptr<BufferedSubscription> EventRouter::subscribe_buffered(
    FrameType type, std::size_t max_pending) {
  auto sub = std::shared_ptr<BufferedSubscription>(
      new BufferedSubscription(type, max_pending));
  buffered_.push_back(sub);
  return sub;
}

void EventRouter::forward_to(EventRouter& downstream) {
  forwards_.push_back(&downstream);
}

void EventRouter::publish(const Frame& frame) {
  frames_.add();
  bytes_.add(frame.byte_size());
  const auto t = static_cast<std::size_t>(frame.type);
  if (t < frames_by_type_.size()) frames_by_type_[t].add();

  bool delivered = false;
  const auto guarded = [this](const Handler& handler, const Frame& f) {
    try {
      handler(f);
    } catch (const std::exception&) {
      subscriber_failures_.add();
    }
  };
  for (const auto& tap : raw_taps_) {
    guarded(tap, frame);
    delivered = true;
  }
  for (const auto& [type, handler] : subscribers_) {
    if (type == frame.type) {
      guarded(handler, frame);
      delivered = true;
    }
  }
  for (const auto& sub : buffered_) {
    if (sub->type_ == frame.type) {
      sub->offer(frame, *this);
      delivered = true;
    }
  }
  for (auto* fwd : forwards_) {
    fwd->publish(frame);
    delivered = true;
  }
  if (!delivered) dropped_.add();
}

void EventRouter::attach_to(obs::ObsRegistry& registry) const {
  registry.attach({"transport.frames", "frames", "frames published"},
                  &frames_);
  registry.attach({"transport.bytes", "bytes", "frame payload bytes routed"},
                  &bytes_);
  registry.attach({"transport.sample_frames", "frames",
                   "sample-batch frames published"},
                  &frames_by_type_[static_cast<std::size_t>(
                      FrameType::kSamples)]);
  registry.attach(
      {"transport.log_frames", "frames", "log-event frames published"},
      &frames_by_type_[static_cast<std::size_t>(FrameType::kLogs)]);
  registry.attach({"transport.unrouted_frames", "frames",
                   "frames with no subscriber and no forward"},
                  &dropped_);
  registry.attach({"transport.subscriber_failures", "frames",
                   "handler invocations that threw (contained)"},
                  &subscriber_failures_);
  registry.attach({"transport.fanout_dropped", "frames",
                   "frames shed by full buffered subscriptions"},
                  &fanout_dropped_);
  registry.attach({"transport.fanout_pending_hwm", "frames",
                   "max pending frames across buffered subscriptions"},
                  &fanout_pending_hwm_);
}

}  // namespace hpcmon::transport
