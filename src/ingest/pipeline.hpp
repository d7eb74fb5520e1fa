// IngestPipeline: a sharded, multi-threaded ingest tier with backpressure.
//
// The queue-decoupled ingestion shape every site in the paper converged on
// (RabbitMQ -> Elasticsearch at NERSC, Sec. IV-C; "sharding, batching,
// async" in the roadmap): producers submit SampleBatches; submit() hash-
// partitions each batch by series into per-shard sub-batches and enqueues
// them on bounded transport::Channels; one worker thread per shard pops,
// coalesces adjacent sub-batches, and appends to its ShardedTimeSeriesStore
// shard. Because a series always maps to the same shard and each shard has
// one worker, per-series ordering is preserved end to end — pipeline results
// are identical to appending the same stream synchronously.
//
// When a queue is full, one of three configurable overload policies applies
// (Table I: transport impact "should be well-documented" — here every
// decision is counted in IngestMetrics):
//   kBlock      producer waits (backpressure; lossless)
//   kDropOldest evict the oldest queued sub-batch to admit the new one
//               (bounded staleness; sheds the oldest load first)
//   kReject     refuse the new sub-batch at the door (protects queued work)
//
// Storm mode (this tier's half of the tentpole): every series carries a
// Priority class (core/priority.hpp) and submit() partitions per shard per
// class, so shedding is priority-aware — drop-oldest evicts bulk first, then
// standard, and critical sub-batches are never dropped or rejected while the
// pipeline is open (they fall back to bounded blocking backpressure; the WAL
// upstream makes them durable besides). A DegradationMode set by the
// resilience controller additionally sheds at the door: SHED_BULK turns bulk
// away, SUMMARIZE downsamples standard per series, QUARANTINE admits only
// critical. Voluntary sheds and involuntary losses are counted per class.
//
// Determinism: the synchronous store path stays the default in
// MonitoringStack; the pipeline is opt-in (ingest_shards > 0). For
// deterministic overload tests, construct without start(): submissions then
// exercise the policies against static full queues with exact counts.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "core/priority.hpp"
#include "core/sample.hpp"
#include "ingest/metrics.hpp"
#include "ingest/sharded_store.hpp"
#include "obs/registry.hpp"
#include "transport/channel.hpp"

namespace hpcmon::ingest {

enum class OverloadPolicy : std::uint8_t { kBlock, kDropOldest, kReject };

std::string_view to_string(OverloadPolicy policy);
/// Parse "block" / "drop_oldest" / "reject"; anything else is nullopt.
std::optional<OverloadPolicy> policy_from_string(std::string_view name);

/// The unit queued on a shard channel: a sub-batch whose samples all share
/// one priority class (submit() partitions per shard *and* per class), so
/// overload eviction can reason about a queued item's class as a whole.
struct PrioritizedBatch {
  core::Priority priority = core::Priority::kStandard;
  core::SampleBatch batch;
  /// When the producer enqueued it (feeds the queue_wait stage histogram).
  std::chrono::steady_clock::time_point enqueue_time{};
  /// The write-ahead log's ticket for the record holding these samples; 0
  /// when there is nothing to wait for.
  std::uint64_t wal_ticket = 0;
};

struct IngestConfig {
  /// Bounded sub-batches per shard queue.
  std::size_t queue_capacity = 256;
  OverloadPolicy policy = OverloadPolicy::kBlock;
  /// Max queued sub-batches a worker merges into one shard append.
  std::size_t max_coalesce_batches = 16;
  /// Priority lookup for a series (typically MetricRegistry::series_priority
  /// via the owning stack, a lock-free read), called once per submitted
  /// sample. Unset => every sample is kStandard and the priority machinery
  /// is inert (seed behavior).
  std::function<core::Priority(core::SeriesId)> priority_of;
  /// Write-ahead gate (typically WriteAheadLog::wait_decided via the owning
  /// stack): blocks until the log has decided every record through a
  /// ticket, false once the log abandoned it. A worker appends a sub-batch
  /// only after its ticket passes, and drops it when the log abandoned its
  /// record (a crash drill), so the store never holds a sample whose record
  /// is still in flight.
  std::function<bool(std::uint64_t)> wait_decided;
};

class IngestPipeline {
 public:
  /// One queue + one worker per shard of `store` (which must outlive the
  /// pipeline). Workers do not run until start().
  IngestPipeline(ShardedTimeSeriesStore& store, IngestConfig config = {});
  ~IngestPipeline();

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Spawn the per-shard worker threads. Idempotent; not restartable after
  /// stop().
  void start();
  bool started() const { return started_; }

  /// Partition `batch` by shard and priority class, apply the current
  /// degradation mode at the door (bulk shed, standard downsample /
  /// quarantine), and enqueue per the overload policy. Critical-class
  /// sub-batches are never dropped or rejected while the pipeline is open:
  /// under kDropOldest/kReject they fall back to eviction of lower-priority
  /// queued work and then to bounded blocking (backpressure). Returns the
  /// number of samples actually enqueued (the rest were shed, dropped, or
  /// rejected and counted). Every sub-batch carries `wal_ticket`, the
  /// ticket of the write-ahead record holding `batch` (0: none to wait
  /// for). Thread-safe; callable from many producers.
  std::size_t submit(const core::SampleBatch& batch,
                     std::uint64_t wal_ticket = 0);

  /// Block until every enqueued sub-batch has been appended. Requires
  /// started(); returns immediately otherwise.
  void drain();

  /// drain() with a deadline: returns true once in-flight work hits zero,
  /// false if the deadline expired first (remaining items are abandoned to
  /// the caller's accounting; see MonitoringStack::shutdown). Returns true
  /// immediately when not started.
  bool drain_for(std::chrono::milliseconds deadline);

  /// Close the queues, let workers drain what is already queued, join them.
  /// Subsequent submissions are counted as rejected.
  void stop();

  /// Degradation mode applied by submit() at the door. Set by the
  /// resilience::DegradationController (via the stack's wiring); safe to
  /// call from any thread, takes effect on the next submit.
  void set_mode(core::DegradationMode mode) {
    mode_.store(static_cast<std::uint8_t>(mode), std::memory_order_relaxed);
  }
  core::DegradationMode mode() const {
    return static_cast<core::DegradationMode>(
        mode_.load(std::memory_order_relaxed));
  }

  /// Sub-batches enqueued but not yet appended by a worker.
  std::int64_t in_flight() const {
    return in_flight_.load(std::memory_order_acquire);
  }

  /// Catalog the tier's ingest.* instruments and its queue_wait,
  /// shard_worker and store_append stage histograms in `registry`.
  void attach_to(obs::ObsRegistry& registry) const {
    metrics_.attach_to(registry);
  }
  ShardedTimeSeriesStore& store() { return store_; }
  const IngestConfig& config() const { return config_; }
  std::size_t queue_depth(std::size_t shard) const {
    return channels_[shard]->size();
  }

 private:
  void worker(std::size_t shard);
  bool admit_standard(core::SeriesId series);

  ShardedTimeSeriesStore& store_;
  IngestConfig config_;
  IngestMetrics metrics_;
  std::vector<std::unique_ptr<transport::Channel<PrioritizedBatch>>> channels_;
  std::vector<std::thread> workers_;
  std::atomic<std::int64_t> in_flight_{0};  // enqueued, not yet appended
  std::atomic<std::uint8_t> mode_{0};       // core::DegradationMode
  // SUMMARIZE-mode per-series admission counters (only touched in that mode,
  // so a plain mutex is fine).
  std::mutex stride_mu_;
  std::vector<std::uint32_t> stride_counts_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace hpcmon::ingest
