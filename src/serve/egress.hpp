// EgressQueue: one bounded, priority-aware outbound queue per connection.
//
// The serve tier's cardinal rule (and the acceptance bar of this PR): a slow
// client must never stall ingest. Subscription deltas are pushed from the
// ingest path, so the push must be O(1), lock-local, and bounded no matter
// how wedged the reader is. The queue applies the storm-mode priority door
// (core/priority.hpp) to delta frames:
//
//   * only deltas of a strictly lower class than the arrival are evicted,
//     bulk first, then standard (oldest first within a class). The WAL's
//     dead-letter queue differs: it also evicts the newcomer's own class;
//   * critical is NEVER dropped: when the queue is full of critical frames,
//     further critical deltas COALESCE — the queue keeps the latest value
//     per (subscription, series), so memory is bounded by the subscriber's
//     matched-series count and the client still converges to the current
//     state of every critical series once it drains (the snapshot+delta
//     table idiom);
//   * responses (query replies, acks, errors) are never shed — protocol
//     correctness requires exactly one response per request. They can exceed
//     the cap transiently; the reactor stops READING from a connection whose
//     egress is over cap, so a client that writes requests without reading
//     responses is throttled by TCP backpressure, not by unbounded memory.
//
// Thread model: push_* from the reactor thread and any ingest thread;
// take_bytes from the owning writer thread. One mutex per connection —
// never shared across clients, so one wedged connection cannot convoy
// another's deltas.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <vector>

#include "core/ids.hpp"
#include "core/priority.hpp"
#include "core/sample.hpp"
#include "core/time.hpp"
#include "obs/instruments.hpp"

namespace hpcmon::serve {

/// Server-wide shed/depth accounting shared by every connection's queue
/// (instruments owned by ServeServer, registered as serve.*).
struct EgressCounters {
  obs::Counter* evicted_bulk = nullptr;
  obs::Counter* evicted_standard = nullptr;
  obs::Counter* coalesced_critical = nullptr;
  obs::Counter* deltas_enqueued = nullptr;
  obs::Gauge* depth_hwm = nullptr;
};

class EgressQueue {
 public:
  /// `cap`: max queued delta/response frames before the door engages.
  EgressQueue(std::size_t cap, EgressCounters counters)
      : cap_(cap == 0 ? 1 : cap), counters_(counters) {}

  /// Enqueue an already-framed response. Never shed (see file comment);
  /// the caller throttles reads when depth() reports over-cap.
  void push_response(std::vector<std::uint8_t> frame_bytes);

  /// Enqueue a subscription delta for `sub_id` carrying `samples` (all of
  /// one priority class). Applies the priority door; returns true when the
  /// delta was queued or coalesced, false when it was shed.
  bool push_delta(std::uint32_t sub_id, core::Priority priority,
                  const core::SampleBatch& samples);

  /// Writer side: move every pending frame's bytes into `out` (appended),
  /// materializing coalesced critical state into fresh delta frames.
  /// Returns the number of frames taken.
  std::size_t take_bytes(std::vector<std::uint8_t>& out);

  /// Queued frames (responses + deltas; excludes coalesced map entries).
  std::size_t depth() const;
  /// True when the door should throttle request reads (depth >= cap).
  bool over_cap() const { return depth() >= cap_; }
  /// Series held in the coalesced critical map across subscriptions.
  std::size_t coalesced_entries() const;

  /// Drop any subscription-addressed state for `sub_id` (unsubscribe/close).
  void forget_subscription(std::uint32_t sub_id);

 private:
  struct Item {
    core::Priority priority = core::Priority::kCritical;
    bool is_delta = false;
    std::vector<std::uint8_t> bytes;
  };

  /// Evict the lowest-priority, oldest delta that is strictly lower-class
  /// than `incoming`; returns true when a slot was freed.
  bool evict_for_locked(core::Priority incoming);
  static std::vector<std::uint8_t> frame_delta(std::uint32_t sub_id,
                                               const core::SampleBatch& batch);

  const std::size_t cap_;
  EgressCounters counters_;
  mutable std::mutex mu_;
  std::deque<Item> items_;
  /// Latest value per (subscription, series) for critical deltas that could
  /// not be queued. Bounded by the matched-series count of the client's
  /// subscriptions, NOT by ingest rate.
  std::map<std::pair<std::uint32_t, core::SeriesId>, core::TimedValue>
      coalesced_;
};

}  // namespace hpcmon::serve
