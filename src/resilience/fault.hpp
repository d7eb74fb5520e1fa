// Deterministic fault injection for the resilience tier.
//
// Every site in the paper learned its failure modes the hard way: hung
// vendor probes, lossy undocumented transports, stores that could not be
// trusted across restarts (Secs. III-IV). hpcmon makes those failure modes
// first-class test inputs instead. A FaultPlan is a seeded-RNG-driven (plus
// optionally scripted) schedule of faults; wrappers consult it at well-
// defined points:
//   * FaultySampler  — wraps any collect::Sampler; injects thrown errors and
//     simulated hangs (the hang parks the calling thread on a condition
//     variable until release_hangs(), so a SupervisedSampler watchdog can be
//     exercised deterministically and CI can always reclaim the thread).
//   * core::FsFaultInjector — FaultPlan implements the generic filesystem
//     fault interface: every durable-state writer (the WAL's appends, the
//     tiered-retention compactor's temp-write/fsync/rename/unlink sequences)
//     consults fs_fault(op) before each physical operation. One shared
//     monotone fs-op counter drives the scripted `fs_*_at` one-shots, so a
//     crash-matrix test can kill a multi-file transaction at exactly the
//     Nth filesystem operation and assert byte-exact recovery.
//   * core::SocketFaultInjector — the same pattern for the network: the
//     relay client and the serve server consult socket_fault(op) before
//     every connect/send/recv. One shared monotone socket-op counter drives
//     the scripted `sock_*_at` one-shots, so a resume test can reset the
//     wire at exactly the Nth socket operation of a send/ack exchange and
//     assert byte-exact recovery on the aggregator.
//   * WriteAheadLog::deliver — draws delivery_error() before every try,
//     redeliveries included, to drive the retry/dead-letter paths; and the
//     WAL consults flush_error() at every flush of its stdio buffer, so a
//     test can fail a flush that follows writes which all succeeded.
//
// Determinism: all probabilistic draws come from one seeded core::Rng behind
// a mutex; given a fixed seed and a fixed sequence of queries the injected
// fault schedule is bit-reproducible. Scripted one-shots (`*_at` fields,
// 1-based operation indices) fire regardless of the probabilities, so tests
// can place a single fault at an exact operation.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "collect/sampler.hpp"
#include "core/fsfault.hpp"
#include "core/rng.hpp"
#include "core/sockfault.hpp"

namespace hpcmon::resilience {

struct FaultSpec {
  // Per-operation probabilities (0 disables the class of fault).
  double sampler_error_p = 0.0;
  double sampler_hang_p = 0.0;
  double delivery_error_p = 0.0;
  // Filesystem fault probabilities, consulted once per physical fs
  // operation by every fault-aware durable-state writer. Short writes
  // apply only to kWrite ops; rename errors only to kRename; ENOSPC to
  // the space-consuming ops (open/write/fsync); error and crash to all.
  double fs_error_p = 0.0;
  double fs_short_write_p = 0.0;
  double fs_enospc_p = 0.0;
  double fs_rename_error_p = 0.0;
  double fs_crash_p = 0.0;
  // Socket fault probabilities, consulted once per physical socket operation
  // by fault-aware network code (relay client, serve server). Short writes
  // and torn frames apply only to kSend ops; short reads only to kRecv;
  // resets and stalls to all.
  double sock_reset_p = 0.0;
  double sock_stall_p = 0.0;
  double sock_short_write_p = 0.0;
  double sock_short_read_p = 0.0;
  double sock_torn_frame_p = 0.0;
  // Scripted one-shots: fire at the Nth query of that category (1-based);
  // 0 disables. Fires in addition to any probabilistic faults. All fs_*_at
  // indices count the SAME fs-op stream, so "crash at fs op 7" is exact
  // regardless of which fault classes are armed.
  std::uint64_t sampler_error_at = 0;
  std::uint64_t sampler_hang_at = 0;
  std::uint64_t delivery_error_at = 0;
  /// Counts the WAL's buffer flushes, a stream of its own (a flush is not
  /// an fs op), so failing the Nth flush moves no fs_*_at index.
  std::uint64_t flush_error_at = 0;
  std::uint64_t fs_error_at = 0;
  std::uint64_t fs_short_write_at = 0;
  std::uint64_t fs_enospc_at = 0;
  std::uint64_t fs_rename_error_at = 0;
  std::uint64_t fs_crash_at = 0;
  // All sock_*_at indices count the SAME socket-op stream (distinct from the
  // fs-op stream), so "reset at socket op 7" is exact regardless of which
  // fault classes are armed.
  std::uint64_t sock_reset_at = 0;
  std::uint64_t sock_stall_at = 0;
  std::uint64_t sock_short_write_at = 0;
  std::uint64_t sock_short_read_at = 0;
  std::uint64_t sock_torn_frame_at = 0;
  /// Every sampler query after `sampler_hang_at` also hangs when set —
  /// models a permanently wedged probe rather than a one-off stall.
  bool sampler_hang_sticky = false;
};

/// Counters of faults actually injected (for asserting test coverage).
struct InjectedFaults {
  std::uint64_t sampler_errors = 0;
  std::uint64_t sampler_hangs = 0;
  std::uint64_t delivery_errors = 0;
  std::uint64_t flush_errors = 0;
  std::uint64_t fs_errors = 0;
  std::uint64_t fs_short_writes = 0;
  std::uint64_t fs_enospc = 0;
  std::uint64_t fs_rename_errors = 0;
  std::uint64_t fs_crashes = 0;
  std::uint64_t sock_resets = 0;
  std::uint64_t sock_stalls = 0;
  std::uint64_t sock_short_writes = 0;
  std::uint64_t sock_short_reads = 0;
  std::uint64_t sock_torn_frames = 0;
};

class FaultPlan : public core::FsFaultInjector, public core::SocketFaultInjector {
 public:
  explicit FaultPlan(std::uint64_t seed, FaultSpec spec = {});

  /// Replace the active spec (thread-safe). Operation counters and the RNG
  /// stream keep running, so a ChaosSchedule can swap phase specs mid-run
  /// without disturbing determinism of the draws themselves.
  void set_spec(FaultSpec spec);
  FaultSpec spec() const;

  // Each query advances that category's operation counter; thread-safe.
  bool sampler_error();
  bool sampler_hang();
  bool delivery_error();
  /// Scripted only (flush_error_at): the draw takes nothing from the RNG.
  bool flush_error();

  /// Generic filesystem fault point (core::FsFaultInjector). Advances the
  /// shared fs-op counter; scripted one-shots take precedence over the
  /// probabilistic draws, and at most one fault fires per operation.
  core::FsFault fs_fault(core::FsOp op) override;

  /// Total filesystem operations consulted so far — lets a crash-matrix
  /// test measure a pass's op count before sweeping fs_crash_at over it.
  std::uint64_t fs_ops() const;

  /// Generic socket fault point (core::SocketFaultInjector). Advances the
  /// shared socket-op counter; scripted one-shots take precedence over the
  /// probabilistic draws, and at most one fault fires per operation.
  core::SocketFault socket_fault(core::SocketOp op) override;

  /// Total socket operations consulted so far — lets a resume test measure
  /// a session's op count before sweeping sock_reset_at over it.
  std::uint64_t socket_ops() const;

  /// Park the calling thread (a simulated hang) until release_hangs().
  void enter_hang();
  /// Wake every simulated hang and wait until the hung threads have left
  /// enter_hang(), so tests tear down deterministically.
  void release_hangs();
  std::size_t active_hangs() const;

  InjectedFaults injected() const;

 private:
  bool draw(double p, std::uint64_t& counter, std::uint64_t at,
            std::uint64_t& injected_counter, bool sticky = false);

  mutable std::mutex mu_;
  std::condition_variable hang_cv_;
  core::Rng rng_;
  FaultSpec spec_;
  std::uint64_t sampler_error_ops_ = 0;
  std::uint64_t sampler_hang_ops_ = 0;
  std::uint64_t fs_ops_ = 0;
  std::uint64_t sock_ops_ = 0;
  std::uint64_t delivery_ops_ = 0;
  std::uint64_t flush_ops_ = 0;
  std::size_t hanging_ = 0;
  bool released_ = false;
  InjectedFaults injected_;
};

/// Wrap `inner` so its sample() calls consult `plan`: an injected error
/// throws std::runtime_error; an injected hang parks the calling thread
/// until plan.release_hangs(). The plan must outlive every thread that may
/// still be inside sample().
class FaultySampler : public collect::Sampler {
 public:
  FaultySampler(std::unique_ptr<collect::Sampler> inner, FaultPlan& plan)
      : inner_(std::move(inner)), plan_(plan) {}

  std::string name() const override { return inner_->name(); }
  void sample(core::TimePoint sweep_time, core::SampleBatch& out) override;

 private:
  std::unique_ptr<collect::Sampler> inner_;
  FaultPlan& plan_;
};

}  // namespace hpcmon::resilience
