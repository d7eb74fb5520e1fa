// TierStore: crash-safe downsampled retention tiers behind the hot store.
//
// The paper's Table I asks for hierarchical retention — raw telemetry kept
// briefly, coarser resolutions kept for months — and Sec. IV-C's year-scale
// dashboards need those coarse tiers to stay queryable. A TierStore holds a
// ladder of resolution tiers (raw → 10s → 5min → 1h by default); each tier
// is a directory of immutable columnar files whose index is the existing
// ChunkSummary, and retention within a tier is per core::Priority class
// (critical raw outlives bulk raw). The Compactor (compactor.hpp) moves
// data down the ladder; this class owns the durable state machine.
//
// Durability protocol (DESIGN.md "Tiered retention"): every transition is
// journaled with the WAL idiom — a write-ahead intent record names the
// destination and sources, the destination is built as <path>.tmp, fsynced,
// and atomically renamed, a commit record makes the transition real (one
// commit covers ALL files of a hot-ingest pass plus the eviction watermark,
// so a crash can never acknowledge half a pass), and source deletion is
// recorded before the unlinks with a cleaned marker after. open() replays
// the journal: uncommitted intents roll back (dest unlinked, sources kept),
// committed-but-uncleaned deletions re-run (idempotent), stray .tmp files
// are removed, and every surviving tier file's index is CRC-verified —
// files that fail are quarantined (renamed *.corrupt), never served.
//
// Tier file format ('HPTF', host-endian, version 1):
//   header:  u32 magic | u32 version | u32 tier | u32 cls | u64 seq |
//            i64 resolution_us | i64 min_time | i64 max_time |
//            u32 entry_count | u32 index_crc
//   index:   entry_count records, sorted by (series, min_time):
//            u32 series | u64 count | i64 min_time | i64 max_time |
//            f64 sum | f64 min | f64 max | f64 first | f64 last |
//            u64 offset | u32 payload_len | u32 payload_crc
//   data:    Chunk::serialize() payloads at the recorded offsets
// index_crc covers header (with the crc field zeroed) + index, so any
// single-byte flip in either is detected at load; payload_crc guards each
// chunk and is checked on every entry read (typed kCorruption on mismatch).
//
// Dual-summary semantics — the honest part: an entry's index summary always
// describes the ORIGINAL raw samples the entry derives from (count/sum/min/
// max/first/last compose exactly through compactions via time-ordered
// ChunkSummary::merge), while the entry's chunk payload stores the
// downsampled bucket values. Aggregates over windows that fully cover an
// entry are therefore EXACT against raw history no matter how coarse the
// tier; only window-boundary entries fall back to the stored bucket points
// (approximate within downsample semantics, e.g. mean-of-means).
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/fsfault.hpp"
#include "core/ids.hpp"
#include "core/priority.hpp"
#include "core/result.hpp"
#include "core/time.hpp"
#include "obs/registry.hpp"
#include "store/chunk.hpp"
#include "store/fold.hpp"
#include "store/summary.hpp"

namespace hpcmon::store {

/// One rung of the retention ladder.
struct TierSpec {
  core::Duration resolution = 0;  // bucket width; 0 = raw (tier 0 only)
  Agg agg = Agg::kMean;           // bucket reduction applied when aging IN
  /// Retention per priority class, indexed by core::Priority: data older
  /// than keep[cls] ages into the next tier (or expires from the last).
  std::array<core::Duration, core::kPriorityClasses> keep{};
};

struct TierPolicy {
  std::vector<TierSpec> tiers;  // tier 0 (raw) first; coarser downward

  /// raw 2d/1d/6h → 10s 7d/3d/1d → 5min 90d/30d/7d → 1h 400d/365d/90d
  /// (critical / standard / bulk) — the paper's "year of telemetry".
  static TierPolicy standard();
};

/// One series' chunk inside a tier file. `summary` and the time bounds
/// describe the ORIGINAL raw samples (see header comment).
struct TierEntry {
  core::SeriesId series{0};
  core::TimePoint min_time = 0;
  core::TimePoint max_time = 0;
  ChunkSummary summary;
  std::uint64_t offset = 0;
  std::uint32_t payload_len = 0;
  std::uint32_t payload_crc = 0;
};

/// An immutable, index-verified tier file. Entry payloads are read (and
/// CRC-checked) on demand; the index lives in memory.
class TierFile {
 public:
  struct Meta {
    std::uint32_t tier = 0;
    std::uint32_t cls = 0;  // core::Priority of every series in the file
    std::uint64_t seq = 0;
    core::Duration resolution = 0;
    core::TimePoint min_time = 0;
    core::TimePoint max_time = 0;
  };

  /// Open `path`, verify magic/version/index CRC, load the index. Returns
  /// kCorruption for any integrity failure (never a partially-loaded file).
  static core::Result<std::shared_ptr<const TierFile>> load(std::string path);

  const Meta& meta() const { return meta_; }
  const std::vector<TierEntry>& entries() const { return entries_; }
  const std::string& path() const { return path_; }
  std::uint64_t bytes() const { return bytes_; }

  /// Read + CRC-verify + decode-validate one entry's chunk. kCorruption on
  /// any mismatch; a bit flip anywhere in the payload is detected here.
  core::Result<Chunk> load_chunk(const TierEntry& e) const;

 private:
  friend class TierStore;
  TierFile() = default;

  std::string path_;
  Meta meta_;
  std::vector<TierEntry> entries_;
  std::uint64_t bytes_ = 0;
};

/// A destination tier file to be written in one durable transaction.
struct TierWriteSpec {
  std::uint32_t tier = 0;
  std::uint32_t cls = 0;
  struct SeriesChunk {
    core::SeriesId series{0};
    core::TimePoint min_time = 0;  // raw-sample bounds
    core::TimePoint max_time = 0;
    ChunkSummary summary;                  // raw-sample stats
    std::vector<std::uint8_t> payload;     // Chunk::serialize() output
  };
  std::vector<SeriesChunk> chunks;  // sorted by (series, min_time)
};

class TierStore {
 public:
  struct Options {
    std::string dir;  // tier files live in <dir>/t<k>/, journal in <dir>/
    TierPolicy policy = TierPolicy::standard();
    /// Consulted before every physical fs op (tests wire a FaultPlan).
    core::FsFaultInjector* faults = nullptr;
  };

  explicit TierStore(Options opts);

  /// Recover durable state: replay the journal, roll back / re-run as
  /// described above, verify + publish every tier file, rewrite a compact
  /// journal. NOT fault-injected (it is idempotent: a crash during open()
  /// is recovered by the next open()). Must be called before anything else.
  core::Status open();

  /// True once an injected kCrash killed this instance: durable state is
  /// whatever reached disk, every further mutation refuses, and tests
  /// construct a fresh TierStore on the same dir to model the restart.
  bool crashed() const;

  /// Eviction watermark: every sample with time < watermark() is durable in
  /// some tier. The stack drops WAL-replayed samples below it, and the hot
  /// store is only evicted behind it. INT64_MIN until the first commit.
  core::TimePoint watermark() const;

  // ---- durable transactions (driven by the Compactor) ----

  /// Hot ingest: write one tier-0 file per WriteSpec, then ONE commit
  /// record covering all of them + the new watermark. On any failure the
  /// transaction aborts with sources (the hot store) untouched. `specs` may
  /// be empty to advance the watermark alone.
  core::Status ingest_hot(const std::vector<TierWriteSpec>& specs,
                          core::TimePoint new_watermark);

  /// Aging: replace `srcs` (all one tier+class) with `dest` one tier down
  /// the ladder. Publish is atomic; sources are unlinked only after commit
  /// (a failed unlink is retried, never blocks the transaction).
  core::Status age(const std::vector<std::shared_ptr<const TierFile>>& srcs,
                   const TierWriteSpec& dest);

  /// Expiry from the last tier: durably record the deletion, unpublish,
  /// unlink.
  core::Status expire(
      const std::vector<std::shared_ptr<const TierFile>>& srcs);

  /// Retry pending source unlinks and heal a poisoned journal (atomic
  /// rewrite). Called at the top of every compactor pass; fault-injected.
  core::Status maintain();

  // ---- read path ----

  /// Add every published entry of `series` overlapping `fold.range()`, from
  /// every tier, to `fold`: one consistent view of the ladder, taken under
  /// the store lock. Payloads are read and decoded outside it, by the fold.
  void snapshot(core::SeriesId series, SliceFold& fold) const;

  // ---- introspection ----

  const TierPolicy& policy() const { return opts_.policy; }
  /// Snapshot of the published files of one tier (optionally one class).
  std::vector<std::shared_ptr<const TierFile>> files(std::uint32_t tier) const;
  std::vector<std::shared_ptr<const TierFile>> files(std::uint32_t tier,
                                                     std::uint32_t cls) const;
  std::uint64_t disk_bytes() const;
  std::size_t file_count() const;
  std::size_t quarantined_count() const;

  /// Catalog tier.* instruments (files/bytes gauges, load + quarantine +
  /// journal counters).
  void attach_to(obs::ObsRegistry& registry) const;

  ~TierStore();
  TierStore(const TierStore&) = delete;
  TierStore& operator=(const TierStore&) = delete;

 private:
  friend class SliceFold;  // counts tier.entry_loads / tier.load_failures

  struct SrcId {
    std::uint32_t tier = 0;
    std::uint32_t cls = 0;
    std::uint64_t seq = 0;
  };
  struct PendingCleanup {
    std::uint64_t op = 0;
    std::vector<SrcId> srcs;
  };

  // Journal plumbing (tier.cpp).
  core::Status journal_append_locked(const std::vector<std::uint8_t>& payload);
  core::Status rewrite_journal_locked();
  std::string journal_path() const;
  std::string tier_dir(std::uint32_t tier) const;
  std::string file_path(std::uint32_t tier, std::uint32_t cls,
                        std::uint64_t seq) const;

  // Fault-aware physical ops; each returns the injected (or real) outcome
  // and flips crashed_ on kCrash.
  core::Status write_file_locked(const std::string& path,
                                 const std::vector<std::uint8_t>& bytes);
  core::Status rename_locked(const std::string& from, const std::string& to);
  core::Status unlink_locked(const std::string& path);
  core::FsFault consult_locked(core::FsOp op);

  core::Status write_tier_file_locked(const TierWriteSpec& spec,
                                      std::uint64_t seq, std::uint64_t op_id,
                                      std::shared_ptr<const TierFile>* out);
  void publish_locked(std::shared_ptr<const TierFile> f);
  void unpublish_locked(const TierFile& f);
  core::Status cleanup_srcs_locked(std::uint64_t op_id,
                                   std::vector<SrcId> srcs);

  void refresh_gauges_locked();

  Options opts_;
  mutable std::mutex mu_;
  bool opened_ = false;
  bool crashed_ = false;
  bool journal_poisoned_ = false;
  std::FILE* journal_ = nullptr;
  core::TimePoint watermark_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_op_ = 1;
  std::vector<std::vector<std::shared_ptr<const TierFile>>> files_;  // [tier]
  std::vector<PendingCleanup> pending_;
  std::size_t quarantined_ = 0;

  mutable obs::Counter entry_loads_;
  mutable obs::Counter load_failures_;
  mutable obs::Counter journal_records_;
  mutable obs::Counter quarantined_files_;
  mutable obs::Gauge files_gauge_;
  mutable obs::Gauge bytes_gauge_;
};

/// Read view over the tier ladder plus a hot store (TimeSeriesStore or
/// ingest::ShardedTimeSeriesStore: anything with snapshot() and latest()).
/// It answers through the one fold, so serve's bind_query_hooks() binds it
/// and dashboards span "now" back through every tier without knowing tiers
/// exist. A null tier store reads the hot store alone; a null hot store,
/// the ladder alone.
template <typename Hot>
class TierSpanView : public SliceReads<TierSpanView<Hot>> {
 public:
  TierSpanView(const TierStore* tiers, const Hot* hot)
      : tiers_(tiers), hot_(hot) {}

  /// Hot before cold: a compaction pass publishes before it evicts, so a
  /// chunk in flight is in at least one of the two snapshots.
  void snapshot(core::SeriesId series, SliceFold& fold) const {
    if (hot_ != nullptr) hot_->snapshot(series, fold);
    if (tiers_ != nullptr) tiers_->snapshot(series, fold);
  }

  /// A series' newest data is hot (the compactor moves only a series'
  /// oldest chunks), so the ladder answers only when the hot store is empty.
  std::optional<core::TimedValue> latest(core::SeriesId series) const {
    if (hot_ != nullptr) {
      if (auto hot = hot_->latest(series)) return hot;
    }
    if (tiers_ == nullptr) return std::nullopt;
    SliceFold fold({INT64_MIN, INT64_MAX});
    tiers_->snapshot(series, fold);
    return fold.latest();
  }

 private:
  const TierStore* tiers_;
  const Hot* hot_;
};

}  // namespace hpcmon::store
