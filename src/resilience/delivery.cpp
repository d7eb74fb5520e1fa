#include "resilience/delivery.hpp"

#include <chrono>
#include <thread>

#include "resilience/fault.hpp"

namespace hpcmon::resilience {

using core::Status;

ReliableDelivery::ReliableDelivery(DeliverFn fn, DeliveryOptions options)
    : fn_(std::move(fn)), options_(options) {
  if (options_.max_attempts < 1) options_.max_attempts = 1;
}

Status ReliableDelivery::attempt(const transport::Frame& frame) {
  try {
    return fn_(frame);
  } catch (const std::exception& e) {
    return Status::error(std::string("delivery threw: ") + e.what());
  }
}

bool ReliableDelivery::deliver(const transport::Frame& frame) {
  for (int n = 0; n < options_.max_attempts; ++n) {
    if (n > 0) {
      retries_.add();
      if (options_.backoff_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options_.backoff_ms << (n - 1)));
      }
    }
    if (attempt(frame).is_ok()) {
      delivered_.add();
      return true;
    }
  }
  failures_.add();
  if (options_.dead_letter_cap > 0) {
    if (dead_letters_.size() >= options_.dead_letter_cap) {
      // Priority-aware eviction: a full queue makes room by dropping the
      // oldest frame of the LOWEST priority present (bulk before standard
      // before critical), so a bulk flood can never push a critical frame
      // out of its last durable refuge. When everything parked outranks the
      // newcomer, the newcomer is the one turned away.
      auto victim = dead_letters_.begin();
      for (auto it = dead_letters_.begin(); it != dead_letters_.end(); ++it) {
        if (it->priority > victim->priority) victim = it;
      }
      if (victim->priority < frame.priority) {
        evicted_.add();
        update_dlq_fill();
        return false;  // incoming frame is the lowest priority in sight
      }
      dead_letters_.erase(victim);
      evicted_.add();
    }
    dead_letters_.push_back(frame);
    dead_lettered_.add();
    update_dlq_fill();
  }
  return false;
}

std::size_t ReliableDelivery::redeliver() {
  std::size_t ok = 0;
  const std::size_t pending = dead_letters_.size();
  for (std::size_t i = 0; i < pending; ++i) {
    transport::Frame frame = std::move(dead_letters_.front());
    dead_letters_.pop_front();
    if (attempt(frame).is_ok()) {
      ++ok;
      redelivered_.add();
    } else {
      dead_letters_.push_back(std::move(frame));  // keep, retry later
    }
  }
  update_dlq_fill();
  return ok;
}

void ReliableDelivery::attach_to(obs::ObsRegistry& registry) const {
  registry.attach({"resilience.delivered_frames", "frames",
                   "frames that eventually got through"},
                  &delivered_);
  registry.attach({"resilience.delivery_retries", "attempts",
                   "extra delivery attempts beyond the first"},
                  &retries_);
  registry.attach({"resilience.delivery_failures", "frames",
                   "frames that exhausted every delivery attempt"},
                  &failures_);
  registry.attach({"resilience.dead_letters", "frames",
                   "frames parked in the dead-letter queue (cumulative)"},
                  &dead_lettered_);
  registry.attach({"resilience.dead_letter_evictions", "frames",
                   "dead letters evicted by the bounded queue"},
                  &evicted_);
  registry.attach({"resilience.redelivered", "frames",
                   "dead letters successfully redelivered"},
                  &redelivered_);
  obs::InstrumentInfo fill;
  fill.name = "resilience.dlq_fill";
  fill.unit = "frac";
  fill.description = "dead-letter queue occupancy / capacity";
  fill.gauge_agg = obs::GaugeAgg::kMax;
  registry.attach(fill, &dlq_fill_);
}

ReliableDelivery::DeliverFn faulty_deliver(ReliableDelivery::DeliverFn inner,
                                           FaultPlan& plan) {
  return [inner = std::move(inner), &plan](const transport::Frame& frame) {
    if (plan.delivery_error()) {
      return Status::error("injected delivery fault");
    }
    return inner(frame);
  };
}

}  // namespace hpcmon::resilience
