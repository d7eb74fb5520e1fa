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
#include <functional>
#include <vector>

#include "obs/registry.hpp"
#include "transport/codec.hpp"

namespace hpcmon::transport {

class EventRouter {
 public:
  using Handler = std::function<void(const Frame&)>;

  /// Subscribe to one frame type.
  void subscribe(FrameType type, Handler handler);
  /// Raw tap: receives every frame before type dispatch.
  void subscribe_raw(Handler handler);

  /// Forward every frame into a downstream router (aggregation tree edge).
  /// The downstream router must outlive this one.
  void forward_to(EventRouter& downstream);

  /// Publish one frame: raw taps, then type subscribers, then forwards. A
  /// handler that throws is contained and counted
  /// (transport.subscriber_failures); fan-out always continues to the
  /// remaining subscribers — one bad consumer must never take down the data
  /// path for the rest.
  void publish(const Frame& frame);

  /// Catalog the router's instruments as transport.* in `registry`.
  void attach_to(obs::ObsRegistry& registry) const;

 private:
  std::vector<std::pair<FrameType, Handler>> subscribers_;
  std::vector<Handler> raw_taps_;
  std::vector<EventRouter*> forwards_;
  obs::Counter frames_;
  obs::Counter bytes_;
  std::array<obs::Counter, 4> frames_by_type_;  // indexed by FrameType
  obs::Counter dropped_;
  obs::Counter subscriber_failures_;
};

}  // namespace hpcmon::transport
