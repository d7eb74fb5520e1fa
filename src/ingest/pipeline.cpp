#include "ingest/pipeline.hpp"

#include <algorithm>
#include <chrono>

#include "ingest/arena.hpp"

namespace hpcmon::ingest {

namespace {
using std::chrono::steady_clock;

/// Worker wake period while idle (bounds shutdown latency).
constexpr std::chrono::milliseconds kIdlePoll{20};
/// In SUMMARIZE mode, admit every Nth standard-class sample per series
/// (downsample-on-ingest); the rest are counted as voluntarily shed.
constexpr std::size_t kStandardStride = 4;

std::uint64_t elapsed_us(steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          steady_clock::now() - since)
          .count());
}
}  // namespace

std::string_view to_string(OverloadPolicy policy) {
  switch (policy) {
    case OverloadPolicy::kBlock: return "block";
    case OverloadPolicy::kDropOldest: return "drop_oldest";
    case OverloadPolicy::kReject: return "reject";
  }
  return "?";
}

std::optional<OverloadPolicy> policy_from_string(std::string_view name) {
  if (name == "block") return OverloadPolicy::kBlock;
  if (name == "drop_oldest") return OverloadPolicy::kDropOldest;
  if (name == "reject") return OverloadPolicy::kReject;
  return std::nullopt;
}

IngestPipeline::IngestPipeline(ShardedTimeSeriesStore& store,
                               IngestConfig config)
    : store_(store), config_(config), metrics_(store.shard_count()) {
  if (config_.queue_capacity == 0) config_.queue_capacity = 1;
  if (config_.max_coalesce_batches == 0) config_.max_coalesce_batches = 1;
  channels_.reserve(store_.shard_count());
  for (std::size_t i = 0; i < store_.shard_count(); ++i) {
    channels_.push_back(std::make_unique<transport::Channel<PrioritizedBatch>>(
        config_.queue_capacity));
  }
}

bool IngestPipeline::admit_standard(core::SeriesId series) {
  const auto idx = static_cast<std::size_t>(core::raw(series));
  std::scoped_lock lock(stride_mu_);
  if (idx >= stride_counts_.size()) stride_counts_.resize(idx + 1, 0);
  return (stride_counts_[idx]++ % kStandardStride) == 0;
}

IngestPipeline::~IngestPipeline() { stop(); }

void IngestPipeline::start() {
  if (started_ || stopped_) return;
  started_ = true;
  workers_.reserve(channels_.size());
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    workers_.emplace_back([this, i] { worker(i); });
  }
}

std::size_t IngestPipeline::submit(const core::SampleBatch& batch,
                                   std::uint64_t wal_ticket) {
  metrics_.record_submit(batch.size());
  const auto mode = this->mode();
  // Partition by owning shard AND priority class, applying the degradation
  // mode's door policy per sample; each queued item then has one uniform
  // class, which keeps per-series ordering (a series has exactly one class)
  // and lets eviction treat items wholesale. The first pass routes and
  // counts; the second scatters into parts sized exactly, in batch order.
  constexpr std::size_t kClasses = core::kPriorityClasses;
  constexpr std::uint32_t kShed = UINT32_MAX;
  std::vector<std::uint32_t> part_of(batch.samples.size(), kShed);
  std::vector<std::size_t> part_size(channels_.size() * kClasses, 0);
  std::array<std::size_t, kClasses> offered{};
  std::array<std::size_t, kClasses> shed{};
  for (std::size_t i = 0; i < batch.samples.size(); ++i) {
    const auto series = batch.samples[i].series;
    const auto pri = config_.priority_of ? config_.priority_of(series)
                                         : core::Priority::kStandard;
    const auto cls = static_cast<std::size_t>(pri);
    ++offered[cls];
    if (pri == core::Priority::kBulk &&
        mode >= core::DegradationMode::kShedBulk) {
      ++shed[cls];
      continue;
    }
    if (pri == core::Priority::kStandard) {
      if (mode == core::DegradationMode::kQuarantine ||
          (mode == core::DegradationMode::kSummarize &&
           !admit_standard(series))) {
        ++shed[cls];
        continue;
      }
    }
    const auto part = store_.shard_of(series) * kClasses + cls;
    part_of[i] = static_cast<std::uint32_t>(part);
    ++part_size[part];
  }
  for (std::size_t c = 0; c < kClasses; ++c) {
    const auto pri = static_cast<core::Priority>(c);
    if (offered[c] > 0) metrics_.record_submit_class(pri, offered[c]);
    if (shed[c] > 0) metrics_.record_shed(pri, shed[c]);
  }
  std::vector<std::vector<core::Sample>> parts(part_size.size());
  for (std::size_t p = 0; p < parts.size(); ++p) parts[p].reserve(part_size[p]);
  for (std::size_t i = 0; i < batch.samples.size(); ++i) {
    if (part_of[i] != kShed) parts[part_of[i]].push_back(batch.samples[i]);
  }

  std::size_t enqueued = 0;
  for (std::size_t shard = 0; shard < channels_.size(); ++shard) {
    for (std::size_t c = 0; c < kClasses; ++c) {
      auto& samples = parts[shard * kClasses + c];
      if (samples.empty()) continue;
      const auto pri = static_cast<core::Priority>(c);
      PrioritizedBatch part;
      part.priority = pri;
      part.batch.samples = std::move(samples);
      part.batch.sweep_time = batch.sweep_time;
      part.batch.origin = batch.origin;
      part.wal_ticket = wal_ticket;
      part.enqueue_time = steady_clock::now();
      const std::size_t n = part.batch.samples.size();
      auto& ch = *channels_[shard];
      const bool critical = pri == core::Priority::kCritical;

      // Fast path: space available (push_for with zero wait does not consume
      // `part` on failure, so the policy below still owns the same item).
      bool pushed = ch.push_for(part, std::chrono::seconds(0));
      if (!pushed) {
        // Critical sub-batches bypass the lossy policies: make room by
        // evicting lower-priority queued work, then fall back to bounded
        // blocking backpressure. The only way a critical batch is refused is
        // a closed (stopping) pipeline.
        const auto policy = critical && config_.policy != OverloadPolicy::kBlock
                                ? OverloadPolicy::kDropOldest
                                : config_.policy;
        switch (policy) {
          case OverloadPolicy::kBlock: {
            if (ch.closed()) break;  // reject, not a backpressure stall
            metrics_.record_block_entered();
            const auto t0 = steady_clock::now();
            // Bounded waits so a closed pipeline cannot wedge a producer.
            while (!ch.closed() && !(pushed = ch.push_for(
                                         part, std::chrono::milliseconds(50)))) {
            }
            metrics_.record_block_wait(elapsed_us(t0));
            break;
          }
          case OverloadPolicy::kDropOldest: {
            bool block_entered = false;
            auto t0 = steady_clock::now();
            while (!ch.closed() &&
                   !(pushed = ch.push_for(part, std::chrono::seconds(0)))) {
              // Evict the oldest item of the worst class present, down to the
              // incoming batch's own class (classic drop-oldest within a
              // class) — bulk before standard, critical never.
              const std::size_t floor = c < 1 ? 1 : c;
              std::optional<PrioritizedBatch> evicted;
              for (std::size_t victim = kClasses - 1; victim >= floor;
                   --victim) {
                evicted = ch.evict_first_if([victim](const PrioritizedBatch& q) {
                  return static_cast<std::size_t>(q.priority) == victim;
                });
                if (evicted) break;
              }
              if (evicted) {
                metrics_.record_dropped(evicted->batch.samples.size(),
                                        evicted->priority);
                in_flight_.fetch_add(-1, std::memory_order_acq_rel);
                continue;
              }
              if (critical) {
                // Nothing outranked below us (queue is all-critical):
                // backpressure rather than lose critical data.
                if (!block_entered) {
                  block_entered = true;
                  metrics_.record_block_entered();
                  t0 = steady_clock::now();
                }
                pushed = ch.push_for(part, std::chrono::milliseconds(50));
                continue;
              }
              // Incoming batch ranks no higher than anything queued: the
              // incoming work IS the oldest-to-shed equivalent. Drop it.
              break;
            }
            if (block_entered) metrics_.record_block_wait(elapsed_us(t0));
            if (!pushed && !ch.closed()) {
              metrics_.record_dropped(n, pri);
              continue;  // counted as dropped, not rejected
            }
            break;
          }
          case OverloadPolicy::kReject:
            break;
        }
      }
      if (pushed) {
        in_flight_.fetch_add(1, std::memory_order_acq_rel);
        metrics_.record_enqueue(shard, ch.size());
        enqueued += n;
      } else {
        metrics_.record_rejected(n, pri);
      }
    }
  }
  return enqueued;
}

void IngestPipeline::drain() {
  if (!started_ || stopped_) return;
  while (in_flight_.load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

bool IngestPipeline::drain_for(std::chrono::milliseconds deadline) {
  if (!started_ || stopped_) {
    return in_flight_.load(std::memory_order_acquire) <= 0;
  }
  const auto until = steady_clock::now() + deadline;
  while (in_flight_.load(std::memory_order_acquire) > 0) {
    if (steady_clock::now() >= until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

void IngestPipeline::stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& ch : channels_) ch->close();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

void IngestPipeline::worker(std::size_t shard) {
  auto& ch = *channels_[shard];
  // Per-worker merge arena: reset on every drain, so the coalesce+append
  // hot loop reuses one warmed-up allocation instead of growing and freeing
  // a vector per iteration.
  SampleArena arena;
  for (;;) {
    auto first = ch.pop_for(kIdlePoll);
    if (!first) {
      // Timeout or closed-and-drained; this worker is the only consumer, so
      // the emptiness check cannot race another pop.
      if (ch.closed() && ch.size() == 0) return;
      continue;
    }
    const auto work_t0 = steady_clock::now();
    // Each sub-batch waited from its own enqueue to its own pop; timing a
    // coalesced one against work_t0 would go negative (and wrap) whenever
    // it was enqueued after the first pop.
    const auto queue_wait = [&](const PrioritizedBatch& item) {
      metrics_.record_queue_wait(elapsed_us(item.enqueue_time));
    };
    queue_wait(*first);
    // Coalesce whatever else is already queued (bounded) into one append:
    // fewer lock acquisitions per sample, and the batch-size histogram shows
    // how bursty the offered load was. Classes may mix in the merged append;
    // the store does not care, and each sub-batch already survived the
    // priority-aware admission above.
    arena.reset();
    arena.append(first->batch.samples);
    std::size_t sub_batches = 1;
    std::uint64_t ticket = first->wal_ticket;
    while (sub_batches < config_.max_coalesce_batches) {
      auto more = ch.try_pop();
      if (!more) break;
      queue_wait(*more);
      arena.append(more->batch.samples);
      ticket = std::max(ticket, more->wal_ticket);
      ++sub_batches;
    }
    // Write-ahead: append only once the log has decided every record the
    // merged samples came from. Records the log abandoned died with it.
    if (ticket != 0 && config_.wait_decided &&
        !config_.wait_decided(ticket)) {
      in_flight_.fetch_add(-static_cast<std::int64_t>(sub_batches),
                           std::memory_order_acq_rel);
      continue;
    }
    const auto t0 = steady_clock::now();
    const std::size_t accepted =
        store_.append_batch_on_shard(shard, arena.run());
    const auto append_us = elapsed_us(t0);
    metrics_.record_append(sub_batches, accepted, arena.size() - accepted,
                           append_us);
    metrics_.record_arena(shard, arena.capacity_bytes());
    metrics_.record_shard_worker(elapsed_us(work_t0));
    in_flight_.fetch_add(-static_cast<std::int64_t>(sub_batches),
                         std::memory_order_acq_rel);
  }
}

}  // namespace hpcmon::ingest
