// IngestMetrics: the ingest tier's self-telemetry, built on hpcmon::obs
// instruments.
//
// Table I demands that transport impact "should be well-documented"; here it
// is measured. Every overload-policy decision (block, drop, reject), every
// out-of-order point the store refuses, queue-depth high-water marks, a
// batch-size histogram, and per-stage latency (queue wait, shard worker,
// store append) are counted with lock-free obs instruments so the hot path
// stays cheap. The instruments are the single source of truth: attach_to()
// catalogs them in the shared ObsRegistry, where the degradation control
// loop, the hpcmon.self.* export, and the operator report all read the same
// atomics; a pipeline outside a stack is read with obs::snapshot_of().
//
// Clock note: the library's telemetry runs on the simulated timeline, but the
// ingest tier is real threads doing real work, so its latency self-metrics
// are real (steady_clock) durations measured by the pipeline and recorded
// here as plain microsecond totals.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/priority.hpp"
#include "obs/registry.hpp"

namespace hpcmon::ingest {

class IngestMetrics {
 public:
  explicit IngestMetrics(std::size_t shards);

  // -- Producer side ---------------------------------------------------------
  void record_submit(std::size_t samples) {
    submitted_batches_.add();
    submitted_samples_.add(samples);
  }
  void record_enqueue(std::size_t shard, std::size_t depth_after) {
    enqueued_batches_.add();
    queue_hwm_[shard].update_max(static_cast<double>(depth_after));
  }
  /// The stall is counted on ENTRY to the blocking wait (so an observer can
  /// see that a producer is parked); the wait duration is added once the
  /// producer resumes.
  void record_block_entered() { blocked_pushes_.add(); }
  void record_block_wait(std::uint64_t wait_us) { block_wait_us_.add(wait_us); }
  void record_dropped(std::size_t samples,
                      core::Priority pri = core::Priority::kStandard) {
    dropped_batches_.add();
    dropped_samples_.add(samples);
    dropped_by_class_[static_cast<std::size_t>(pri)].add(samples);
  }
  void record_rejected(std::size_t samples,
                       core::Priority pri = core::Priority::kStandard) {
    rejected_batches_.add();
    rejected_samples_.add(samples);
    rejected_by_class_[static_cast<std::size_t>(pri)].add(samples);
  }
  void record_submit_class(core::Priority pri, std::size_t samples) {
    submitted_by_class_[static_cast<std::size_t>(pri)].add(samples);
  }
  /// Voluntary degradation-mode shedding at the submit door (never critical).
  void record_shed(core::Priority pri, std::size_t samples) {
    shed_by_class_[static_cast<std::size_t>(pri)].add(samples);
  }

  // -- Worker side -----------------------------------------------------------
  /// One sub-batch's wait from its enqueue to its worker's pop.
  void record_queue_wait(std::uint64_t us) { queue_wait_us_.record(us); }
  void record_append(std::size_t merged_batches, std::size_t accepted,
                     std::size_t out_of_order, std::uint64_t duration_us);
  /// A worker's time from its pop to its append's end, coalescing and the
  /// write-ahead wait included.
  void record_shard_worker(std::uint64_t us) { shard_worker_us_.record(us); }
  /// Current retained allocation of a shard worker's sample arena.
  void record_arena(std::size_t shard, std::size_t bytes) {
    arena_bytes_[shard].set(static_cast<double>(bytes));
  }

  /// Catalog every instrument as ingest.*, and the tier's three stage
  /// histograms as stage.*, in `registry` (critical priority: the ingest
  /// tier's vitals must survive the storms they report on).
  void attach_to(obs::ObsRegistry& registry) const;

 private:
  obs::Counter submitted_batches_;
  obs::Counter submitted_samples_;
  obs::Counter enqueued_batches_;
  obs::Counter appends_;
  obs::Counter coalesced_batches_;
  obs::Counter accepted_samples_;
  obs::Counter out_of_order_samples_;
  obs::Counter dropped_batches_;
  obs::Counter dropped_samples_;
  obs::Counter rejected_batches_;
  obs::Counter rejected_samples_;
  obs::Counter blocked_pushes_;
  obs::Counter block_wait_us_;
  obs::Counter append_us_;
  std::vector<obs::Gauge> queue_hwm_;  // per shard; merged via GaugeAgg::kMax
  std::vector<obs::Gauge> arena_bytes_;  // per shard; merged via GaugeAgg::kSum
  obs::Histogram batch_samples_;
  obs::Histogram queue_wait_us_;
  obs::Histogram shard_worker_us_;
  obs::Histogram store_append_us_;
  // Per-class accounting (indexed by core::Priority). "Shed" is voluntary —
  // turned away at the door by degradation mode — as opposed to the
  // involuntary dropped/rejected losses. The storm-mode invariant is that
  // the critical drop and reject counters stay 0, always.
  std::array<obs::Counter, core::kPriorityClasses> submitted_by_class_;
  std::array<obs::Counter, core::kPriorityClasses> shed_by_class_;
  std::array<obs::Counter, core::kPriorityClasses> dropped_by_class_;
  std::array<obs::Counter, core::kPriorityClasses> rejected_by_class_;
};

}  // namespace hpcmon::ingest
