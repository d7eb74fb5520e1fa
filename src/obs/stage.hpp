// StageTimer: per-stage latency distributions for a batch's trip through the
// pipeline.
//
// The paper (Table I) demands that the monitoring system's own transport
// impact "be well-documented"; the stage map makes that one histogram per
// pipeline stage, all registered in the shared ObsRegistry and exported as
// hpcmon.self.stage.* p50/p95/p99 series:
//
//   sampler_sweep    one sampler's sweep callback (collect tier)
//   queue_wait       enqueue on a shard channel -> worker pop (ingest tier)
//   shard_worker     worker pop -> append completed, incl. coalescing and
//                    the wait for the write-ahead log
//   store_append     the store append_batch call inside the worker
//   query_summary    read answered from seal-time summaries alone
//   query_cursor     read that had to stream-decode boundary chunks
//   query_cache      materializing read served entirely from the decode cache
//
// Stage times are REAL (steady_clock) durations in microseconds: the
// library's telemetry runs on the simulated timeline, but the ingest and
// query tiers are real threads doing real work. record() is wait-free;
// Scoped is an RAII convenience for timing a block.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string_view>

#include "obs/registry.hpp"

namespace hpcmon::obs {

enum class Stage : std::uint8_t {
  kSamplerSweep = 0,
  kQueueWait,
  kShardWorker,
  kStoreAppend,
  kQuerySummary,
  kQueryCursor,
  kQueryCache,
};
inline constexpr std::size_t kStageCount = 7;

std::string_view to_string(Stage s);

class StageTimer {
 public:
  StageTimer() = default;

  /// Catalog every stage histogram as "stage.<name>_us" in `registry`.
  void attach_to(ObsRegistry& registry) const;

  void record(Stage s, std::uint64_t us) {
    hist_[static_cast<std::size_t>(s)].record(us);
  }

  const Histogram& histogram(Stage s) const {
    return hist_[static_cast<std::size_t>(s)];
  }

  /// RAII span: times construction -> destruction into one stage. A null
  /// timer is allowed (the span is then free of atomics entirely).
  class Scoped {
   public:
    Scoped(StageTimer* timer, Stage stage) : timer_(timer), stage_(stage) {
      if (timer_ != nullptr) t0_ = std::chrono::steady_clock::now();
    }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;
    ~Scoped() {
      if (timer_ == nullptr) return;
      timer_->record(stage_, static_cast<std::uint64_t>(
                                 std::chrono::duration_cast<
                                     std::chrono::microseconds>(
                                     std::chrono::steady_clock::now() - t0_)
                                     .count()));
    }
    /// Redirect the pending record to a different stage (e.g. a query that
    /// discovers mid-flight whether it was summary- or cursor-answered).
    void set_stage(Stage stage) { stage_ = stage; }

   private:
    StageTimer* timer_;
    Stage stage_;
    std::chrono::steady_clock::time_point t0_{};
  };

 private:
  std::array<Histogram, kStageCount> hist_;
};

}  // namespace hpcmon::obs
