#include "ingest/metrics.hpp"

#include <string>

namespace hpcmon::ingest {

IngestMetrics::IngestMetrics(std::size_t shards)
    : queue_hwm_(shards), arena_bytes_(shards) {}

void IngestMetrics::record_append(std::size_t merged_batches,
                                  std::size_t accepted,
                                  std::size_t out_of_order,
                                  std::uint64_t duration_us) {
  appends_.add();
  coalesced_batches_.add(merged_batches);
  accepted_samples_.add(accepted);
  out_of_order_samples_.add(out_of_order);
  append_us_.add(duration_us);
  batch_samples_.record(accepted + out_of_order);
  store_append_us_.record(duration_us);
}

void IngestMetrics::attach_to(obs::ObsRegistry& registry) const {
  const auto counter = [&](const char* name, const char* unit,
                           const char* desc, const obs::Counter* c) {
    registry.attach({name, unit, desc}, c);
  };
  counter("ingest.submitted_batches", "batches",
          "batches offered via submit()", &submitted_batches_);
  counter("ingest.submitted_samples", "samples",
          "samples offered to the ingest tier", &submitted_samples_);
  counter("ingest.enqueued_batches", "batches",
          "per-shard sub-batches queued", &enqueued_batches_);
  counter("ingest.appends", "appends", "worker append_batch calls", &appends_);
  counter("ingest.coalesced_batches", "batches",
          "sub-batches merged into shard appends", &coalesced_batches_);
  counter("ingest.accepted_samples", "samples",
          "samples stored by the sharded store", &accepted_samples_);
  counter("ingest.out_of_order_samples", "samples",
          "samples refused by per-series time ordering",
          &out_of_order_samples_);
  counter("ingest.dropped_batches", "batches", "drop-oldest evictions",
          &dropped_batches_);
  counter("ingest.dropped_samples", "samples",
          "samples evicted by the drop-oldest overload policy",
          &dropped_samples_);
  counter("ingest.rejected_batches", "batches",
          "batches refused at the door (reject policy or closed pipe)",
          &rejected_batches_);
  counter("ingest.rejected_samples", "samples",
          "samples refused at the door by the reject overload policy",
          &rejected_samples_);
  counter("ingest.blocked_pushes", "pushes",
          "producer enqueues that hit backpressure (block policy)",
          &blocked_pushes_);
  counter("ingest.block_wait_us", "us",
          "cumulative producer time spent blocked on full queues",
          &block_wait_us_);
  counter("ingest.append_us", "us",
          "cumulative worker time spent appending to shards", &append_us_);
  obs::InstrumentInfo hwm;
  hwm.name = "ingest.queue_hwm";
  hwm.unit = "batches";
  hwm.description = "highest per-shard queue depth seen so far";
  hwm.gauge_agg = obs::GaugeAgg::kMax;
  for (const auto& g : queue_hwm_) registry.attach(hwm, &g);
  obs::InstrumentInfo arena;
  arena.name = "ingest.arena_bytes";
  arena.unit = "bytes";
  arena.description = "retained shard-worker sample-arena allocation";
  arena.gauge_agg = obs::GaugeAgg::kSum;  // shard arenas sum to tier memory
  for (const auto& g : arena_bytes_) registry.attach(arena, &g);
  registry.attach({"ingest.batch_samples", "samples",
                   "coalesced samples per shard append"},
                  &batch_samples_);
  registry.attach(obs::stage_info("queue_wait"), &queue_wait_us_);
  registry.attach(obs::stage_info("shard_worker"), &shard_worker_us_);
  registry.attach(obs::stage_info("store_append"), &store_append_us_);
  // Per-priority-class counters: named ingest.<verb>_<class>_samples so one
  // glance at a dashboard shows which class is absorbing the storm. The
  // critical drop/reject series exist precisely so operators can alert on
  // them being nonzero (the invariant the priority machinery enforces).
  for (std::size_t c = 0; c < core::kPriorityClasses; ++c) {
    const std::string cls{core::to_string(static_cast<core::Priority>(c))};
    registry.attach({"ingest.submitted_" + cls + "_samples", "samples",
                     "samples of this priority class offered to the tier"},
                    &submitted_by_class_[c]);
    registry.attach(
        {"ingest.shed_" + cls + "_samples", "samples",
         "samples voluntarily shed at the door by degradation mode"},
        &shed_by_class_[c]);
    registry.attach({"ingest.dropped_" + cls + "_samples", "samples",
                     "samples of this class lost to drop-oldest eviction"},
                    &dropped_by_class_[c]);
    registry.attach({"ingest.rejected_" + cls + "_samples", "samples",
                     "samples of this class refused at the door"},
                    &rejected_by_class_[c]);
  }
}

}  // namespace hpcmon::ingest
