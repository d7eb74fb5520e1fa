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
//     [u32 magic 'HPWL'][u32 version = 2]
//     record*: [u32 payload_len][u32 crc32(payload)][payload]
//   payload = the frame's batch in the compact sample layout documented in
//             transport/codec.hpp (id and time deltas, XOR'd values; 1.9
//             bytes a sample on e2ebench's fleet, against the 20 a frame
//             carries). The one record writer transcodes the fixed-width
//             frame it is handed into a reused buffer, then checksums and
//             writes that buffer. Version 1 segments, whose payloads are the
//             fixed-width frame bytes (transport::encode_samples), are still
//             replayed; no version-1 segment is written, and any other
//             version is a bad segment.
//
// Failure semantics on replay:
//   * torn tail (partial trailing record, e.g. crash mid-write): tolerated —
//     scanning stops at the tear, everything before it is restored, and the
//     tear is counted (torn_tails);
//   * CRC mismatch with an intact length header: the record is skipped and
//     counted (corrupt_skipped); scanning resumes at the next record;
//   * bad segment header: the whole segment is skipped and counted.
//
// Two ways in, one record writer. append() and deliver() write on the
// caller's thread and flush before they return. post() is the router's
// way in when the stack has shard workers: it checks the frame, copies its
// fixed-width bytes into the open group buffer and returns the record's
// ticket, with no transcode, CRC or syscall. One writer thread per log
// (started by the first post()) takes each group in turn and runs the same
// per-record logic deliver() runs (fault draws, retries, dead-lettering,
// transcode, CRC, rotation at the same byte boundaries), flushes once per
// group (group commit: DeWitt et al., SIGMOD 1984; Aether, Johnson et al.,
// PVLDB 2010), then publishes the ticket through which every record is
// *decided*: logged or dead-lettered. A record counts as logged only once
// a flush that succeeded covers it. A failed flush (which poisons the log) fails
// every record written since the last good one, and each is dead-lettered
// from the group buffer before its ticket is published. A synchronous
// write first writes any posted records still pending, so the log keeps
// call order, and a post()ed sequence produces the same segment bytes
// deliver() would. Dead letters are older than anything still posted, so
// the heal keeps time order against the posts pending at the heal:
// rotate() first decides them against the log as it stands (on a poisoned
// log they are dead-lettered behind the older letters), and redeliver()
// leaves posts to the writer. It does not keep time order against records
// logged before the heal. A frame that exhausts its tries on a healthy log
// (delivery faults, no poison) is parked while newer frames are still
// logged, and redeliver() then logs it after newer records of its series.
// Replay skips a sample older than its series' last, so that letter's
// samples are lost on replay although resilience.redelivered counts them
// as logged (a known gap, ROADMAP).
//
// The rule the ingest tier keeps with it: a shard worker appends a
// sub-batch only once wait_decided() covers the ticket it carried, so the
// store never holds a sample whose record is still in flight. The router's
// other taps do not wait: live subscribers and the relay see a posted
// frame at once, so after a crash they may hold samples the node's replay
// lacks. Memory is two fixed 1 MiB group buffers that the router and the
// writer swap; post() waits only when both are full. Flushing hands each
// record to the kernel, so a crashed *process* loses nothing already
// logged (media-level fsync durability is out of scope for the simulation
// substrate and called out in DESIGN.md). What a process crash does lose
// is posted records not yet decided, which the store never saw either
// (abandon() is the crash drill), and dead letters, as before. Rotation
// starts a new segment once the active one exceeds segment_bytes;
// truncate_before() deletes sealed segments whose newest sample is older
// than a durability watermark (e.g. the hot-window cutoff once the archive
// has been spilled).
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
// Locks: mu_ guards the file and the dead-letter queue; every method that
// touches them takes it (an aggregator's serve reactor logs relayed
// batches while its timeline thread self-heals and truncates the log).
// post() takes only the short queue lock, never mu_, so the router never
// waits behind a group write. The order is mu_ -> queue lock, and the
// writer never waits on the router.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
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
  /// Optional fault injection: the file layer (append's record write), the
  /// delivery faults deliver() and redeliver() draw before each try, and
  /// the buffer flushes.
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

  /// The longest record any way in accepts. Replay reads a longer length
  /// header as a torn tail, so a frame whose record could be longer (16 +
  /// 24·count bytes, the compact worst case) is refused (StatusCode
  /// kTooLarge, counted as an append failure) and nothing is written.
  static constexpr std::size_t kMaxRecordBytes = std::size_t{64} << 20;
  /// Capacity of each of post()'s two group buffers. A record larger than
  /// this waits for an empty buffer and has it to itself.
  static constexpr std::size_t kGroupBytes = std::size_t{1} << 20;

  /// Append one sample frame as a CRC-framed record. The record's payload
  /// is the batch transport::decode_samples reads from the frame's first
  /// 16 + 20·count bytes (trailing bytes are not logged), in the compact
  /// layout. A frame that is not kSamples, lacks its 16-byte header, or
  /// holds fewer records than its count returns an error and writes
  /// nothing; a zero-sample frame is a no-op. The record is flushed before
  /// returning.
  /// Errors (real or injected) are counted; an injected short write leaves
  /// a torn tail and poisons the log (subsequent appends fail), simulating
  /// a crash mid-record.
  core::Status append(const transport::Frame& frame);

  /// Hand a frame to the writer thread, checked as append() checks it, and
  /// return its record's ticket (0 for a zero-sample frame, which logs
  /// nothing). The writer delivers it as deliver() would, dead-lettering it
  /// after kDeliveryAttempts. Waits only while both group buffers are full.
  core::Result<std::uint64_t> post(const transport::Frame& frame);

  /// Block until every record posted through `ticket` is decided (logged or
  /// dead-lettered). Returns false instead once abandon() dropped it.
  bool wait_decided(std::uint64_t ticket) const;

  /// The newest ticket post() handed out, and the newest through which
  /// every record is decided: the writer's lag is the difference.
  std::uint64_t last_ticket() const {
    std::scoped_lock q(qmu_);
    return posted_;
  }
  std::uint64_t decided_ticket() const {
    return decided_.load(std::memory_order_acquire);
  }

  /// Crash drill: drop the posted records the writer has not taken and stop
  /// it. They reach neither the log nor, through wait_decided(), the store.
  /// Later posts are refused.
  void abandon();

  /// Tries per frame before deliver() gives up on it.
  static constexpr int kDeliveryAttempts = 3;

  /// What deliver() does with a frame it could not log.
  enum class OnFailure {
    kDeadLetter,   // park it for redeliver()
    kCallerKeeps,  // leave it: the caller still holds it and resends it
  };

  /// append() with retries, on the caller's thread, after any posted
  /// records still pending. Each try first draws faults->delivery_error()
  /// (when a plan is set), then appends. After kDeliveryAttempts failed
  /// tries the frame is dead-lettered, unless the caller keeps it. A full
  /// queue makes room by evicting the oldest frame of the lowest class
  /// present (bulk before standard before critical), so a bulk flood never
  /// pushes out a critical frame; when everything parked outranks the
  /// newcomer, the newcomer is turned away. A write whose flush fails is
  /// not logged (the flush poisons the log, so later tries fail too).
  /// Returns true if the frame was logged.
  bool deliver(const transport::Frame& frame,
               OnFailure on_failure = OnFailure::kDeadLetter);

  /// One try per dead letter, drawing faults the way deliver() does;
  /// logged frames leave the queue, the rest keep their order. Posted
  /// records still pending are newer than every letter and stay with the
  /// writer, to be logged after the letters. Returns the number logged.
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

  /// Write every posted record still pending, then flush the active
  /// segment's stdio buffer.
  core::Status sync();

  /// Crash drill: write a deliberately torn record (length header promises
  /// more bytes than are written) and poison the log. Replay must tolerate
  /// the tear.
  void simulate_torn_tail();

  /// Recover a poisoned log: decide the posted records still pending
  /// against the log as it stands (a poisoned one dead-letters them behind
  /// the older letters), then seal the damaged active segment (replay
  /// already tolerates its torn tail) and open a fresh one, clearing the
  /// poison on success. Appending after a tear must go to a NEW segment — anything
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

  /// A posted record's place in its group buffer.
  struct Posted {
    std::size_t offset = 0;
    std::size_t bytes = 0;
    core::Priority priority = core::Priority::kStandard;
  };
  /// One group: the posted records' bytes, back to back, and their places.
  struct Group {
    std::vector<std::uint8_t> bytes;
    std::vector<Posted> records;
  };
  /// A record handed to write_batch_locked(). Its bytes stay where they
  /// are (the caller's frame, a group buffer, a dead letter) until the
  /// batch is settled.
  struct Record {
    const std::uint8_t* payload = nullptr;  // the frame's fixed-width bytes
    std::size_t bytes = 0;
    core::Priority priority = core::Priority::kStandard;
    bool written = false;    // in the stdio buffer
    bool logged = false;     // and a flush that succeeded covered it
    std::size_t stored = 0;  // on-disk bytes, length header and CRC included
  };

  /// The frame's record length, or why it cannot be logged (an oversized
  /// record is counted as an append failure).
  core::Result<std::size_t> record_bytes(const transport::Frame& frame);

  // These helpers run with mu_ held (or in the constructor).
  std::string segment_path(std::uint64_t index) const;
  core::Status open_segment(std::uint64_t index);
  void seal_active();
  /// One record write: the poison check, the fs fault draw, the transcode
  /// to the compact layout, CRC, header and payload into the stdio buffer.
  /// Marks `r` written and sets its stored size. No flush, no rotation.
  core::Status write_locked(Record& r);
  /// The one record writer every way in uses. Writes batch_ in order, each
  /// record with up to `tries` tries (each drawing delivery_error() first
  /// when `draw_faults`); flushes before each segment seal and once at the
  /// end. Only a successful flush logs a record: a failed one fails every
  /// record written since the last good one. Returns the last failure.
  core::Status write_batch_locked(int tries, bool draw_faults);
  /// Flush the stdio buffer; a failure (real or injected) poisons the log.
  bool flush_locked();
  /// Count batch_'s outcomes as deliveries; a record not logged is
  /// dead-lettered from the bytes it still points at, unless kCallerKeeps.
  void settle_locked(OnFailure on_failure);
  /// Take the open group (the router moves to the other one), deliver its
  /// records, settle them, and publish their tickets as decided.
  void drain_posted_locked();
  void tear_locked();
  void dead_letter(transport::Frame frame);
  void update_dlq_fill();
  void writer_loop();

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
  std::vector<Record> batch_;  // write_batch_locked()'s input, reused
  std::vector<std::uint8_t> record_;  // write_locked()'s compact record
  obs::Counter delivered_;
  obs::Counter retries_;
  obs::Counter failures_;
  obs::Counter dead_lettered_;
  obs::Counter evicted_;
  obs::Counter redelivered_;
  obs::Gauge dlq_fill_;  // dead letters / cap, refreshed on every change

  // The post() queue, under qmu_ (taken after mu_, never before it). The
  // router fills groups_[open_]; a drain flips open_ and writes the other.
  mutable std::mutex qmu_;
  std::condition_variable posted_cv_;           // the writer: work or stop
  std::condition_variable room_cv_;             // post(): the groups flipped
  mutable std::condition_variable decided_cv_;  // wait_decided()
  Group groups_[2];
  int open_ = 0;
  std::uint64_t posted_ = 0;               // the last ticket handed out
  std::atomic<std::uint64_t> decided_{0};  // every ticket <= it is decided
  bool stopping_ = false;
  bool abandoned_ = false;
  std::thread writer_;
};

}  // namespace hpcmon::resilience
