// Segmented write-ahead log for the ingest path.
//
// The paper's sites repeatedly lost analyses to monitoring that was not
// trustworthy across restarts (Sec. IV; Table I "Data Storage": stores must
// be dependable, "always on"). hpcmon's hot tier is in-memory, so a crash
// between retention passes loses every hot sample. The WAL closes that hole:
// every sample frame is appended (CRC32-framed) to an append-only segment
// file *before* it is considered ingested; on restart, replay() restores the
// un-persisted samples into the store, byte-identical to an uninterrupted
// run (duplicate suppression falls out of the store's strictly-increasing
// per-series timestamps).
//
// On-disk format (host-endian, like the archive files):
//   segment file "wal-%08llu.seg":
//     [u32 magic 'HPWL'][u32 version]
//     record*: [u32 payload_len][u32 crc32(payload)][payload]
//   payload = the binary transport codec's SampleBatch encoding
//             (transport::encode_samples), so the WAL reuses the documented
//             wire format instead of inventing a second one. append() logs
//             the bytes of the frame it is handed as they are; it never
//             decodes or re-encodes them.
//
// Failure semantics on replay:
//   * torn tail (partial trailing record, e.g. crash mid-write): tolerated —
//     scanning stops at the tear, everything before it is restored, and the
//     tear is counted (torn_tails);
//   * CRC mismatch with an intact length header: the record is skipped and
//     counted (corrupt_skipped); scanning resumes at the next record;
//   * bad segment header: the whole segment is skipped and counted.
//
// Appends fwrite+fflush each record so a crashed *process* loses nothing
// already acknowledged (media-level fsync durability is out of scope for the
// simulation substrate and called out in DESIGN.md). Rotation starts a new
// segment once the active one exceeds segment_bytes; truncate_before()
// deletes sealed segments whose newest sample is older than a durability
// watermark (e.g. the hot-window cutoff once the archive has been spilled).
//
// deliver() is the publish path's append. Sec. IV's transport war stories
// (NERSC's RabbitMQ pipeline, ALCF's reverse-engineered ERD) converge on one
// requirement: forwarding must retry transient failures, give up visibly
// (never silently), and bound the memory a dead downstream can consume. So
// deliver() makes up to kDeliveryAttempts tries, then parks the frame in a
// bounded dead-letter queue; redeliver() retries the queue once the disk
// recovers. Every retry, failure, dead letter and eviction is counted (Table
// I: the transport's impact "should be well-documented").
//
// Every method takes one mutex: an aggregator's serve reactor logs relayed
// batches while its timeline thread logs its own sweeps, self-heals the log
// (rotate, redeliver) and truncates it after a compaction pass.
#pragma once

#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "core/result.hpp"
#include "core/sample.hpp"
#include "obs/registry.hpp"
#include "resilience/fault.hpp"
#include "transport/codec.hpp"

namespace hpcmon::resilience {

struct WalOptions {
  std::string dir;                       // segment directory (created if absent)
  std::size_t segment_bytes = 1u << 20;  // rotate past this size
  std::size_t dead_letter_cap = 64;      // frames deliver() may park (0: none)
  /// Optional fault injection: the file layer (append's record write) and
  /// the delivery faults deliver() and redeliver() draw before each try.
  FaultPlan* faults = nullptr;
};

struct ReplayStats {
  std::uint64_t segments = 0;
  std::uint64_t records = 0;
  std::uint64_t samples = 0;
  std::uint64_t corrupt_skipped = 0;  // CRC-mismatched records skipped
  std::uint64_t torn_tails = 0;       // partial trailing records tolerated
  std::uint64_t bad_segments = 0;     // unreadable/garbled segment headers
  std::string to_string() const;
};

class WriteAheadLog {
 public:
  /// Opens `opts.dir` (creating it if needed) and starts a fresh segment
  /// after the highest existing index; pre-existing segments are treated as
  /// sealed (replayable, truncatable) and never appended to.
  explicit WriteAheadLog(WalOptions opts);
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Append one sample frame as a CRC-framed record. The record's payload
  /// is the frame's own bytes, not a re-encoding: the 16 + 20·count bytes
  /// transport::decode_samples reads (trailing bytes are not logged). A
  /// frame that is not kSamples, lacks its 16-byte header, or holds fewer
  /// records than its count returns an error and writes nothing; a
  /// zero-sample frame is a no-op. The record is flushed before returning.
  /// Errors (real or injected) are counted; an injected short write leaves
  /// a torn tail and poisons the log (subsequent appends fail), simulating
  /// a crash mid-record.
  core::Status append(const transport::Frame& frame);

  /// Tries per frame before deliver() gives up on it.
  static constexpr int kDeliveryAttempts = 3;

  /// What deliver() does with a frame it could not log.
  enum class OnFailure {
    kDeadLetter,   // park it for redeliver()
    kCallerKeeps,  // leave it: the caller still holds it and resends it
  };

  /// append() with retries. Each try first draws faults->delivery_error()
  /// (when a plan is set), then appends. After kDeliveryAttempts failed
  /// tries the frame is dead-lettered, unless the caller keeps it. A full
  /// queue makes room by evicting the oldest frame of the lowest class
  /// present (bulk before standard before critical), so a bulk flood never
  /// pushes out a critical frame; when everything parked outranks the
  /// newcomer, the newcomer is turned away. Returns true if the frame was
  /// logged.
  bool deliver(const transport::Frame& frame,
               OnFailure on_failure = OnFailure::kDeadLetter);

  /// One try per dead letter, drawing faults the way deliver() does;
  /// logged frames leave the queue, the rest keep their order. Returns the
  /// number logged.
  std::size_t redeliver();

  std::size_t dead_letter_count() const {
    std::scoped_lock lock(mu_);
    return dead_letters_.size();
  }
  /// A copy of the parked frames, oldest first.
  std::deque<transport::Frame> dead_letters() const {
    std::scoped_lock lock(mu_);
    return dead_letters_;
  }

  /// Flush the active segment's stdio buffer.
  core::Status sync();

  /// Crash drill: write a deliberately torn record (length header promises
  /// more bytes than are written) and poison the log. Replay must tolerate
  /// the tear.
  void simulate_torn_tail();

  /// Recover a poisoned log: seal the damaged active segment (replay already
  /// tolerates its torn tail) and open a fresh one, clearing the poison on
  /// success. Appending after a tear must go to a NEW segment — anything
  /// written after a torn record in the same file would be unreachable to
  /// replay. No-op-ish on a healthy log: the active segment just rotates.
  /// The stack's self-heal tick calls this; sites can too, after an
  /// operator clears a disk fault.
  core::Status rotate();

  /// Delete sealed segments whose newest sample time is < cutoff. The
  /// active segment is never deleted. Returns segments removed.
  std::size_t truncate_before(core::TimePoint cutoff);

  /// Catalog the WAL's instruments in `registry`: resilience.wal_* for the
  /// log, then the delivery counters and the dead-letter fill gauge.
  void attach_to(obs::ObsRegistry& registry) const;
  std::size_t sealed_segments() const {
    std::scoped_lock lock(mu_);
    return sealed_.size();
  }
  std::uint64_t active_segment_index() const {
    std::scoped_lock lock(mu_);
    return active_index_;
  }
  bool poisoned() const {
    std::scoped_lock lock(mu_);
    return dead_;
  }

  /// Scan every segment in `dir` in index order, invoking `apply` for each
  /// intact record's decoded batch. Safe on a directory with a torn tail or
  /// corrupted records (see header comment). Missing dir = empty replay.
  static ReplayStats replay(
      const std::string& dir,
      const std::function<void(core::SampleBatch&&)>& apply);

 private:
  struct Sealed {
    std::uint64_t index = 0;
    std::string path;
    core::TimePoint max_time = INT64_MIN;
  };

  // These helpers run with mu_ held (or in the constructor).
  std::string segment_path(std::uint64_t index) const;
  core::Status open_segment(std::uint64_t index);
  void seal_active();
  core::Status append_locked(const transport::Frame& frame);
  void tear_locked();
  /// One delivery try: the injected delivery fault, then the append.
  bool try_deliver(const transport::Frame& frame);
  void dead_letter(const transport::Frame& frame);
  void update_dlq_fill();

  mutable std::mutex mu_;
  WalOptions opts_;
  std::FILE* file_ = nullptr;
  std::size_t file_bytes_ = 0;
  std::uint64_t active_index_ = 0;
  core::TimePoint active_max_time_ = INT64_MIN;
  std::vector<Sealed> sealed_;  // ascending index order
  obs::Counter appended_records_;
  obs::Counter appended_samples_;
  obs::Counter appended_bytes_;
  obs::Counter append_failures_;
  obs::Counter segments_created_;
  obs::Counter segments_truncated_;
  bool dead_ = false;
  std::deque<transport::Frame> dead_letters_;
  obs::Counter delivered_;
  obs::Counter retries_;
  obs::Counter failures_;
  obs::Counter dead_lettered_;
  obs::Counter evicted_;
  obs::Counter redelivered_;
  obs::Gauge dlq_fill_;  // dead letters / cap, refreshed on every change
};

}  // namespace hpcmon::resilience
