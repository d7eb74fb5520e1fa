#include "transport/event_router.hpp"

namespace hpcmon::transport {

void EventRouter::subscribe(FrameType type, Handler handler) {
  subscribers_.emplace_back(type, std::move(handler));
}

void EventRouter::subscribe_raw(Handler handler) {
  raw_taps_.push_back(std::move(handler));
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
}

}  // namespace hpcmon::transport
