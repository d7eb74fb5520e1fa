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
//     assigned contiguously AT FIRST SEND (so shedding unsent bulk under
//     pressure never leaves a permanent gap the server would wait on); the
//     entries holding seqs are always a prefix of the pending queue.
//   * Up to kSendWindow appends are in flight on a connection, sent in seq
//     order; acks are read as they arrive and each ack's cumulative
//     watermark drops the entries it covers. A reconnect, an ack timeout on
//     the oldest outstanding append, or a refusal (an ack whose watermark
//     does not cover it) resends from the first unacked entry (go-back-N).
//     A refusal means the aggregator could not make the batch durable, so
//     a second breaker on the reconnect schedule opens: the client pauses
//     before resending (backoff_ms, doubling per refused probe up to
//     backoff_max_ms, never under 1 ms) and probes with one append at a
//     time until the watermark moves again.
//     Sending in seq order and resuming from the first unacked entry is what
//     keeps the aggregator's apply order equal to seq order: its store drops
//     a series' samples older than the newest it holds, so an out-of-order
//     apply would lose data silently.
//   * Reconnects are governed by a resilience::CircuitBreaker on a
//     steady-clock timeline: exponential backoff with seeded jitter, capped,
//     so a dead aggregator costs bounded connect attempts and a revived one
//     is found within one backoff period.
//   * On (re)connect the client sends kRelayHello with its first unacked seq
//     (its next seq when nothing is unacked). The server raises the source's
//     watermark to just below it — the client holds no lower seq, so none
//     can arrive — which unwedges a restart's seq-lease jump, a restarted
//     aggregator's empty state, and the hole a kError drop leaves.
//     The reply's watermark is authoritative: acked entries are dropped, and
//     next_seq jumps past it, so even a lost local state file cannot re-use
//     a consumed seq (which the server would ack-as-duplicate, silently
//     discarding fresh data).
//   * The local state file (next-seq lease + watermark, tmp+fsync+rename,
//     FsFaultInjector-aware) preserves seq continuity across node restarts
//     while the aggregator is unreachable; with it lost, the hello heal
//     above still guarantees no consumed seq is reused.
//
// The server keeps one watermark per source and applies only the seq just
// above it. A resend at or below the watermark is acked without re-apply, so
// lost acks cost a resend, not a duplicate: at-least-once delivery,
// exactly-once apply. An append above the next expected seq is acked at the
// watermark without apply, and the client goes back N.
//
// Known gap: the pending queue lives only in memory, so a node crash loses
// its unacked backlog. The stack replays its WAL into the local store before
// the relay client exists, and nothing re-submits those batches upstream.
// ROADMAP item 3 (the WAL as the relay's queue) closes it.
//
// submit() never blocks the caller: the bounded pending queue sheds unsent
// bulk first, then unsent standard; critical entries are never shed (they
// may transiently push the queue over its cap — the same contract as the
// serve egress door's "responses are never shed").
#pragma once

#include <atomic>
#include <chrono>
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
  /// Durable source identity; the server keys its watermark on it.
  std::uint64_t source_id = 1;
  /// Max samples per append frame; larger submits are split.
  std::size_t batch_samples = 512;
  /// Pending-entry bound; unsent bulk/standard shed above it (critical never).
  std::size_t queue_cap = 1024;
  /// First pause (wall ms) before a reconnect, or before a resend after a
  /// refusal; doubles per consecutive failure up to backoff_max_ms. Both
  /// are floored at 1 ms.
  int backoff_ms = 50;
  int backoff_max_ms = 2000;
  /// Deadline on the oldest outstanding append's ack, and on a send that
  /// makes no progress — distinguishes "slow" from "gone".
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
  /// Appends kept in flight (sent, not yet acked) on one connection. A
  /// constant, not a setting: twice the 64 appends an e2ebench
  /// relay_federation sweep makes. The server applies only the next seq,
  /// and one connection delivers appends in the order they were sent, so a
  /// full window costs no refusals.
  static constexpr std::size_t kSendWindow = 128;

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
  /// batch is empty, the client is stopped, or everything was shed).
  /// Entries submitted before start() wait for the worker.
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
    std::size_t samples = 0;
    std::vector<std::uint8_t> payload;  // transport::encode_samples bytes
    bool sent_once = false;
    // Of the latest send; valid while the entry is in flight.
    std::uint32_t request_id = 0;
    std::chrono::steady_clock::time_point sent_at{};
  };

  void worker();
  bool ensure_connected();
  void disconnect();
  /// Send every queued entry the window admits, in seq order, in one write.
  bool send_window();
  /// Wait for replies (bounded while the window has room) and apply them.
  /// False: the connection must be dropped.
  bool await_replies();
  bool handle_reply(const serve::WireFrame& reply);
  bool send_bytes(const std::vector<std::uint8_t>& bytes);
  enum class ReadResult { kFed, kIdle, kClosed };
  /// Wait until `deadline` for bytes and feed one recv's worth to the
  /// assembler. kIdle: the deadline passed with nothing to read.
  ReadResult read_some(std::chrono::steady_clock::time_point deadline);
  /// Next assembled reply (server pushes skipped), if any.
  std::optional<serve::WireFrame> next_reply();
  /// Raise the watermark to `watermark` (if higher) and drop every entry it
  /// covers (durably applied upstream). Caller holds mu_.
  void advance_watermark_locked(std::uint64_t watermark);
  /// Appends allowed in flight: kSendWindow, or 1 after a refusal until the
  /// watermark moves again, since the server refuses everything above the
  /// seq it could not take. Caller holds mu_.
  std::size_t window_locked() const {
    return refusals_.state() == resilience::BreakerState::kClosed ? kSendWindow
                                                                  : 1;
  }
  void load_state();
  /// Persist {next_seq lease, watermark}; failures are counted and retried
  /// on the next persist point (forwarding never blocks on the state file).
  void persist_state_locked(std::uint64_t lease_end);
  static std::int64_t now_us();

  RelayConfig config_;
  resilience::CircuitBreaker breaker_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> connected_{false};
  // Worker-owned.
  int fd_ = -1;
  serve::WireAssembler assembler_;
  std::uint32_t next_request_ = 1;
  std::vector<std::uint8_t> send_buf_;

  mutable std::mutex mu_;
  std::condition_variable cv_;        // work available / stop
  std::condition_variable drain_cv_;  // queue drained
  std::deque<Pending> queue_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t lease_end_ = 0;  // highest seq the durable lease covers
  std::uint64_t watermark_ = 0;
  /// Entries at the queue's front sent on this connection and not yet acked.
  std::size_t in_flight_ = 0;
  /// Opens when the server refuses the next seq, admits one probe append
  /// per cooldown, and closes when the watermark moves.
  resilience::CircuitBreaker refusals_;

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
  obs::Gauge in_flight_gauge_;
  obs::Gauge watermark_gauge_;
  obs::Histogram ack_rtt_us_;

  std::thread worker_;  // last: it uses every member above
};

}  // namespace hpcmon::relay
