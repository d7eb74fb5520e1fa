// EventRouter: the documented, open replacement for a vendor ERD.
//
// A fan-out hub for binary frames with (a) per-type subscriptions, (b) a raw
// tap that sees everything at maximum fidelity (Table I: "well-documented
// interfaces for accessing raw data at maximum fidelity with the lowest
// possible overhead"), and (c) forwarding into downstream routers so sites
// can build an aggregation tree (the paper notes PMDB "can be stored
// separately via ERD forwarding capabilities"). Routing is synchronous and
// deterministic; threaded deployments put a Channel between routers.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "obs/registry.hpp"
#include "transport/codec.hpp"

namespace hpcmon::transport {

class EventRouter;

/// A bounded pending-frame queue for a subscriber that consumes at its own
/// pace (a flaky forwarder, a slow archiver). During a log storm an unbounded
/// mailbox for such a consumer grows without limit and takes the whole
/// process down with it; this queue caps pending frames at `max_pending` and
/// sheds — lowest priority first, oldest first within a class — when full.
/// An incoming frame that outranks nothing already queued is itself dropped.
/// Every shed frame is counted here and in transport.fanout_dropped.
/// Single-threaded like the router itself (threaded deployments put a
/// Channel between routers).
class BufferedSubscription {
 public:
  std::size_t pending() const { return queue_.size(); }
  std::uint64_t dropped() const { return dropped_; }
  std::size_t max_pending() const { return max_pending_; }

  /// Deliver every pending frame to `handler` (in arrival order) and clear
  /// the queue; returns the number delivered. A throwing handler loses only
  /// the frame it threw on.
  std::size_t drain(const std::function<void(const Frame&)>& handler);

 private:
  friend class EventRouter;
  BufferedSubscription(FrameType type, std::size_t max_pending)
      : type_(type), max_pending_(max_pending == 0 ? 1 : max_pending) {}
  /// Admit `frame`, shedding per the policy above; reports drops into the
  /// owning router's instruments.
  void offer(const Frame& frame, EventRouter& router);

  FrameType type_;
  std::size_t max_pending_;
  std::deque<Frame> queue_;
  std::uint64_t dropped_ = 0;
};

class EventRouter {
 public:
  using Handler = std::function<void(const Frame&)>;

  /// Subscribe to one frame type.
  void subscribe(FrameType type, Handler handler);
  /// Raw tap: receives every frame before type dispatch.
  void subscribe_raw(Handler handler);
  /// Subscribe with a bounded pending queue instead of synchronous delivery;
  /// the consumer drains the returned subscription at its own pace. The
  /// router holds a reference too, so the subscription outlives either side.
  std::shared_ptr<BufferedSubscription> subscribe_buffered(
      FrameType type, std::size_t max_pending);

  /// Forward every frame into a downstream router (aggregation tree edge).
  /// The downstream router must outlive this one.
  void forward_to(EventRouter& downstream);

  /// Publish one frame: raw taps, then type subscribers (synchronous, then
  /// buffered), then forwards. A handler that throws is contained and
  /// counted (transport.subscriber_failures); fan-out always continues to the
  /// remaining subscribers — one bad consumer must never take down the data
  /// path for the rest.
  void publish(const Frame& frame);

  /// Catalog the router's instruments as transport.* in `registry`.
  void attach_to(obs::ObsRegistry& registry) const;

 private:
  friend class BufferedSubscription;

  std::vector<std::pair<FrameType, Handler>> subscribers_;
  std::vector<Handler> raw_taps_;
  std::vector<std::shared_ptr<BufferedSubscription>> buffered_;
  std::vector<EventRouter*> forwards_;
  obs::Counter frames_;
  obs::Counter bytes_;
  std::array<obs::Counter, 4> frames_by_type_;  // indexed by FrameType
  obs::Counter dropped_;
  obs::Counter subscriber_failures_;
  obs::Counter fanout_dropped_;
  obs::Gauge fanout_pending_hwm_;
};

}  // namespace hpcmon::transport
