// ReliableDelivery: retry + bounded dead-letter queue for frame delivery.
//
// Sec. IV's transport war stories (NERSC's RabbitMQ pipeline, ALCF's
// reverse-engineered ERD) converge on the same requirement: forwarding must
// retry transient failures, give up visibly (never silently), and bound the
// memory a dead downstream can consume. ReliableDelivery wraps any
// frame-delivery function: each deliver() makes up to max_attempts tries
// (with optional real-time backoff between tries — kept at 0 in
// deterministic tests); exhausted frames land in a bounded dead-letter
// queue, evicting the oldest dead letter when full. Every retry, failure,
// dead-letter and eviction is counted (Table I: the transport's impact
// "should be well-documented"). redeliver() retries the queue once the
// downstream recovers.
//
// A delivery function that throws is treated exactly like one that returns
// an error Status, so a misbehaving downstream subscriber cannot unwind the
// publisher.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "core/result.hpp"
#include "obs/registry.hpp"
#include "transport/codec.hpp"

namespace hpcmon::resilience {

class FaultPlan;

struct DeliveryOptions {
  int max_attempts = 3;     // tries per frame before dead-lettering
  int backoff_ms = 0;       // real sleep between tries: backoff_ms * 2^(n-1)
  std::size_t dead_letter_cap = 64;
};

class ReliableDelivery {
 public:
  using DeliverFn = std::function<core::Status(const transport::Frame&)>;

  explicit ReliableDelivery(DeliverFn fn, DeliveryOptions options = {});

  /// Deliver with retries; on exhaustion the frame is dead-lettered.
  /// Returns true if the frame was delivered.
  bool deliver(const transport::Frame& frame);

  /// One redelivery attempt per queued dead letter (no retries within);
  /// successes leave the queue. Returns the number redelivered.
  std::size_t redeliver();

  std::size_t dead_letter_count() const { return dead_letters_.size(); }
  const std::deque<transport::Frame>& dead_letters() const {
    return dead_letters_;
  }
  const DeliveryOptions& options() const { return options_; }
  /// Catalog the delivery counters and the live DLQ fill gauge as
  /// resilience.* in `registry`.
  void attach_to(obs::ObsRegistry& registry) const;

 private:
  core::Status attempt(const transport::Frame& frame);

  void update_dlq_fill() {
    dlq_fill_.set(options_.dead_letter_cap == 0
                      ? 0.0
                      : static_cast<double>(dead_letters_.size()) /
                            static_cast<double>(options_.dead_letter_cap));
  }

  DeliverFn fn_;
  DeliveryOptions options_;
  std::deque<transport::Frame> dead_letters_;
  obs::Counter delivered_;
  obs::Counter retries_;
  obs::Counter failures_;
  obs::Counter dead_lettered_;
  obs::Counter evicted_;
  obs::Counter redelivered_;
  obs::Gauge dlq_fill_;  // dead letters / cap, refreshed on every change
};

/// Wrap a delivery function with FaultPlan-injected failures (for driving
/// the retry/dead-letter machinery in tests and benches).
ReliableDelivery::DeliverFn faulty_deliver(ReliableDelivery::DeliverFn inner,
                                           FaultPlan& plan);

}  // namespace hpcmon::resilience
