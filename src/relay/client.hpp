// RelayClient: durable at-least-once forwarding to an upstream aggregator.
//
// The paper's transport sections (III-IV) and the ORNL/Ciorba follow-ups all
// land on the same requirement: node-level telemetry must reach the central
// store over a network that fails exactly when the monitored system does,
// and no transport may silently lose data while doing so. The relay tier is
// that hop, built on the serve wire (serve/wire.hpp, kRelayHello /
// kRelayAppend) with **at-least-once, exactly-applied** semantics:
//
//   * Every forwarded batch carries a monotone per-source sequence number,
//     assigned contiguously AT SEND TIME (so shedding unsent bulk under
//     pressure never leaves a permanent gap the server would wait on).
//   * One append is in flight at a time; the durable ack watermark advances
//     only when the server acknowledges the applied watermark. Anything
//     unacked survives locally and is resent after reconnect.
//   * Reconnects are governed by a resilience::CircuitBreaker on a
//     steady-clock timeline: exponential backoff with seeded jitter, capped,
//     so a dead aggregator costs bounded connect attempts and a revived one
//     is found within one backoff period.
//   * On (re)connect the client sends kRelayHello; the server's watermark
//     reply is authoritative: acked entries are dropped, the send sequence
//     resumes from the watermark, and next_seq jumps past it — so even a
//     lost local state file cannot re-use a consumed seq (which the server
//     would ack-as-duplicate, silently discarding fresh data).
//   * The local state file (next-seq lease + watermark, tmp+fsync+rename,
//     FsFaultInjector-aware) preserves seq continuity across node restarts
//     while the aggregator is unreachable; with it lost, the hello heal
//     above still guarantees no consumed seq is reused.
//
// The server applies each (source_id, seq) at most once (serve/server.cpp's
// dedupe window keyed to the acked watermark), so resends after lost acks
// are acked-without-reapply: at-least-once delivery, exactly-once apply.
// Node restarts re-submit WAL-replayed batches under FRESH seqs; the
// aggregator store's strictly-increasing per-series timestamps reject the
// byte-identical re-applies (the second dedupe layer, see DESIGN.md).
//
// submit() never blocks the caller: the bounded pending queue sheds unsent
// bulk first, then unsent standard; critical entries are never shed (they
// may transiently push the queue over its cap — the same contract as the
// serve egress door's "responses are never shed").
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/fsfault.hpp"
#include "core/ids.hpp"
#include "core/priority.hpp"
#include "core/sample.hpp"
#include "core/sockfault.hpp"
#include "obs/registry.hpp"
#include "resilience/breaker.hpp"
#include "serve/wire.hpp"

namespace hpcmon::relay {

struct RelayConfig {
  /// Upstream aggregator's serve port on 127.0.0.1 (the serve tier binds
  /// loopback; a real fleet would front it with the LAN listener).
  std::uint16_t upstream_port = 0;
  /// Durable source identity; the server keys its dedupe state on it.
  std::uint64_t source_id = 1;
  /// Max samples per append frame; larger submits are split.
  std::size_t batch_samples = 512;
  /// Pending-entry bound; unsent bulk/standard shed above it (critical never).
  std::size_t queue_cap = 1024;
  /// First reconnect backoff (wall ms); doubles per consecutive failure.
  int backoff_ms = 50;
  int backoff_max_ms = 2000;
  /// Deadline on the ack read — distinguishes "slow" from "gone".
  int ack_timeout_ms = 1000;
  /// Path of the durable seq-lease/watermark file; "" keeps state volatile.
  std::string state_path;
  /// Priority class per series (unset: everything kStandard).
  std::function<core::Priority(core::SeriesId)> priority_of;
  /// Fault injection (tests only): socket ops and state-file fs ops.
  core::SocketFaultInjector* socket_faults = nullptr;
  core::FsFaultInjector* fs_faults = nullptr;
};

/// Typed view over the relay.* instruments. e2ebench still reads it; new
/// readers use the catalog names (attach_to, obs::snapshot_of).
struct RelayStats {
  std::uint64_t submitted_batches = 0;
  std::uint64_t submitted_samples = 0;
  std::uint64_t shed_batches = 0;
  std::uint64_t sent_batches = 0;
  std::uint64_t resent_batches = 0;
  std::uint64_t acked_batches = 0;
  std::uint64_t acked_samples = 0;
  std::uint64_t rejected_batches = 0;
  std::uint64_t connects = 0;
  std::uint64_t connect_failures = 0;
  std::uint64_t disconnects = 0;
  std::uint64_t ack_timeouts = 0;
  std::uint64_t state_write_errors = 0;
  std::uint64_t watermark = 0;
  std::size_t pending = 0;
  bool connected = false;
};

class RelayClient {
 public:
  explicit RelayClient(RelayConfig config);
  ~RelayClient();

  RelayClient(const RelayClient&) = delete;
  RelayClient& operator=(const RelayClient&) = delete;

  /// Load durable state and start the forwarding worker.
  bool start();
  /// Stop forwarding (pending entries are NOT flushed — call drain_for
  /// first for a graceful handoff) and persist the state file.
  void stop();
  bool running() const { return running_; }

  /// Enqueue `batch` for forwarding; never blocks. Splits by priority class
  /// and into <= batch_samples chunks. Returns entries enqueued (0 when the
  /// batch is empty or everything was shed).
  std::size_t submit(const core::SampleBatch& batch);

  /// Block until every submitted entry is acked or `timeout_ms` expires.
  bool drain_for(int timeout_ms);

  bool connected() const { return connected_; }
  /// Highest seq the server has contiguously applied (durable upstream).
  std::uint64_t watermark() const;
  std::size_t pending() const;
  RelayStats stats() const;

  /// Catalog the relay.* instruments in `registry`.
  void attach_to(obs::ObsRegistry& registry) const;

 private:
  struct Pending {
    std::uint64_t seq = 0;  // 0 until first send (assigned contiguously)
    core::Priority priority = core::Priority::kStandard;
    core::SampleBatch batch;
    std::vector<std::uint8_t> payload;  // encoded lazily at first send
    bool sent_once = false;
  };

  void worker();
  bool ensure_connected();
  void disconnect();
  bool send_front();
  bool send_frame(serve::MsgType type, std::uint32_t request_id,
                  const std::vector<std::uint8_t>& body);
  std::optional<serve::WireFrame> read_reply(int timeout_ms);
  /// Drop every pending entry with an assigned seq <= `watermark` (they are
  /// durably applied upstream). Caller holds mu_.
  void drop_acked_locked(std::uint64_t watermark);
  void load_state();
  /// Persist {next_seq lease, watermark}; failures are counted and retried
  /// on the next persist point (forwarding never blocks on the state file).
  void persist_state_locked(std::uint64_t lease_end);
  static std::int64_t now_us();

  RelayConfig config_;
  resilience::CircuitBreaker breaker_;
  std::thread worker_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> connected_{false};
  int fd_ = -1;  // worker-owned
  serve::WireAssembler assembler_;
  std::uint32_t next_request_ = 1;

  mutable std::mutex mu_;
  std::condition_variable cv_;        // work available / stop
  std::condition_variable drain_cv_;  // queue drained
  std::deque<Pending> queue_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t lease_end_ = 0;  // highest seq the durable lease covers
  std::uint64_t watermark_ = 0;

  // relay.* instruments.
  obs::Counter submitted_batches_;
  obs::Counter submitted_samples_;
  obs::Counter shed_batches_;
  obs::Counter sent_batches_;
  obs::Counter resent_batches_;
  obs::Counter acked_batches_;
  obs::Counter acked_samples_;
  obs::Counter rejected_batches_;
  obs::Counter connects_;
  obs::Counter connect_failures_;
  obs::Counter disconnects_;
  obs::Counter ack_timeouts_;
  obs::Counter state_write_errors_;
  obs::Gauge pending_gauge_;
  obs::Gauge watermark_gauge_;
  obs::Histogram ack_rtt_us_;
};

}  // namespace hpcmon::relay
