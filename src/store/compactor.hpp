// Compactor: the background mutator that moves telemetry down the ladder.
//
// TierStore (tier.hpp) owns the durable state machine; the Compactor owns
// the policy. One run_pass(now) does three phases, each a journaled
// transaction against the TierStore:
//   A. Hot ingest — sealed hot-store chunks older than `hot_window` become
//      one raw tier-0 file per priority class; ONE commit record covers all
//      of them plus the new eviction watermark, and only after that commit
//      are the exact snapshot chunks evicted from the hot shards (publish
//      before evict: a transient duplicate beats a transient gap). A reader
//      snapshots hot before cold, so it sees an in-flight chunk once or
//      twice, never zero times; the fold (fold.hpp) collapses the twice.
//   B. Aging — tier-k files past their class's retention are decoded,
//      re-bucketed at tier k+1's resolution, and replaced by one file per
//      (tier, class) in a single intent/commit transaction; the index
//      summaries merge in time order, so raw-sample stats stay exact no
//      matter how many times data ages.
//   C. Expiry — last-tier files past retention are durably deleted.
//
// A corrupt source chunk (CRC/decode failure) is skipped and counted, never
// wedging the ladder; an injected kCrash aborts the pass and marks the
// TierStore dead — the test harness rebuilds on the same directory, which
// is exactly what the crash-matrix battery does at every fs-op index.
//
// The stack runs run_pass on the simulated timeline behind a
// CircuitBreaker: a sick disk opens the breaker and the system degrades to
// "stop compacting, keep serving" instead of hot-looping failed I/O.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/priority.hpp"
#include "core/time.hpp"
#include "obs/registry.hpp"
#include "store/tier.hpp"
#include "store/tsdb.hpp"

namespace hpcmon::store {

struct CompactorOptions {
  /// Sealed hot chunks whose newest point is older than this are tiered
  /// out and evicted behind the durable watermark.
  core::Duration hot_window = 6 * core::kHour;
  /// Priority class of a series (drives per-class retention and file
  /// grouping); kStandard when unset.
  std::function<core::Priority(core::SeriesId)> priority_of;
};

class Compactor {
 public:
  Compactor(std::vector<TimeSeriesStore*> hot_shards, TierStore* tiers,
            CompactorOptions opts);

  /// One full pass (maintain → hot ingest → aging → expiry) at simulated
  /// time `now`. Returns the first failure; partial progress is durable
  /// and the next pass resumes where this one stopped.
  core::Status run_pass(core::TimePoint now);

  /// Catalog compact.* instruments.
  void attach_to(obs::ObsRegistry& registry) const;

 private:
  core::Status compact_hot(core::TimePoint now);
  core::Status age_tiers(core::TimePoint now);
  core::Status expire_last(core::TimePoint now);

  std::vector<TimeSeriesStore*> shards_;
  TierStore* tiers_;
  CompactorOptions opts_;

  obs::Counter passes_;
  obs::Counter pass_failures_;
  obs::Counter files_written_;
  obs::Counter files_aged_;
  obs::Counter files_expired_;
  obs::Counter chunks_compacted_;
  obs::Counter samples_tiered_;
  obs::Counter corrupt_entries_skipped_;
  obs::Counter bytes_written_;
};

}  // namespace hpcmon::store
