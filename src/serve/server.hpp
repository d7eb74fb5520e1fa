// ServeServer: the network front door — an epoll reactor TCP server.
//
// The paper's central recommendation is that monitoring data be continuously
// available to consumers, not trapped in the collector; until this tier,
// every hpcmon consumer had to live in the collector's process. ServeServer
// exposes the query engine, streaming scans, live subscriptions, and an
// admin surface over the length-framed binary protocol (wire.hpp /
// protocol.hpp) on a loopback-or-LAN TCP socket.
//
// Thread model (ROADMAP's connection-fanout design):
//   * ONE reactor thread owns the epoll set: non-blocking accept, reads,
//     frame reassembly (WireAssembler), and request handling. Requests are
//     store reads — the query engine already decodes outside its locks, so
//     handling inline keeps the design one-lock-free-path simple.
//   * A small WRITER POOL (serve_writer_threads) moves egress bytes to
//     sockets; connection id % pool size picks the writer, so each writer
//     owns a stable group of N connections. Writers handle partial writes
//     and never block the reactor.
//   * Deltas are pushed from INGEST threads via publish_batch(): pattern
//     matching against live subscriptions, then a bounded per-client
//     EgressQueue push (egress.hpp) that applies the storm-mode priority
//     door. The ingest path never blocks on a client, full stop.
//
// Backpressure: a connection whose egress is over cap stops being READ
// (EPOLLIN disarmed) until its writer drains it below half — a client that
// fires requests without consuming responses is throttled by TCP, not by
// server memory.
//
// Self-observability: every instrument is cataloged as serve.* in the
// shared ObsRegistry, so the serving tier is watched by the same plane as
// every other tier (and exported as hpcmon.self.serve.* when wired into a
// MonitoringStack).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/ids.hpp"
#include "core/priority.hpp"
#include "core/registry.hpp"
#include "core/sample.hpp"
#include "core/sockfault.hpp"
#include "core/time.hpp"
#include "obs/registry.hpp"
#include "serve/egress.hpp"
#include "serve/protocol.hpp"
#include "serve/wire.hpp"
#include "store/summary.hpp"
#include "transport/codec.hpp"

namespace hpcmon::serve {

struct ServeConfig {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (see port()).
  std::uint16_t port = 0;
  /// Writer pool size; one writer drains every (id % writers)-th connection.
  std::size_t writer_threads = 2;
  /// Per-connection egress cap in frames (the priority door's bound).
  std::size_t egress_cap = 256;
  /// When > 0, shrink each accepted socket's send buffer (tests use a tiny
  /// buffer to make a stalled reader stall the pipe within a few frames).
  int sndbuf_bytes = 0;
  /// When > 0, close connections with no socket activity (bytes read or
  /// written) for this many wall milliseconds. Off by default: a half-open
  /// peer otherwise holds its EgressQueue and subscriptions forever.
  int idle_timeout_ms = 0;
  /// Fault injection consulted before every recv/send (tests only).
  core::SocketFaultInjector* socket_faults = nullptr;
};

/// Everything the server needs from the host process. The five query
/// functions must answer EXACTLY like the in-process store calls (the
/// end-to-end test asserts byte-identical results); admin hooks are
/// optional — absent ones answer kError.
struct ServeHooks {
  std::function<std::vector<core::TimedValue>(core::SeriesId,
                                              const core::TimeRange&)>
      query_range;
  std::function<std::optional<core::TimedValue>(core::SeriesId)> latest;
  std::function<std::optional<double>(core::SeriesId, const core::TimeRange&,
                                      store::Agg)>
      aggregate;
  std::function<std::vector<core::TimedValue>(
      core::SeriesId, const core::TimeRange&, core::Duration, store::Agg)>
      downsample;
  std::function<std::size_t(core::SeriesId, const core::TimeRange&,
                            const std::function<bool(const core::TimedValue&)>&)>
      scan;
  /// Series name/priority resolution for subscriptions (required for
  /// kSubscribe; without it every subscribe answers kError).
  const core::MetricRegistry* registry = nullptr;
  /// Admin surface.
  std::function<std::string()> status;
  /// Degradation override; nullopt releases the override. Returns false
  /// when the host has no degradation machinery.
  std::function<bool(std::optional<core::DegradationMode>)> set_mode;
  std::function<bool()> wal_rotate;
  /// Relay ingest apply (required for kRelayAppend; without it relay
  /// requests answer kError). Called once per (source_id, seq) until it
  /// applies it, in seq order, with the wire payload as a kSamples frame
  /// (its priority class in `frame.priority`) and the batch decoded from
  /// it; must be durable by the time it returns (the ack promises the
  /// client it may forget). Returns the number of samples applied, or
  /// nullopt when the host could not make the batch durable: the server
  /// then acks without applying, and the client resends it later.
  std::function<std::optional<std::size_t>(const transport::Frame&,
                                           const core::SampleBatch&)>
      relay_apply;
  /// Rollup level read by NAME (required for kRollupQuery / kRollupSub;
  /// absent => kError). The host answers from its RollupTree's current
  /// snapshot — O(1) lookups, never a store scatter-gather. nullopt when the
  /// component or metric is unknown or the level is empty.
  std::function<std::optional<rollup::RollupStat>(std::string_view,
                                                  std::string_view)>
      rollup_query;
};

/// Bind the five query hooks to any store exposing the common read API
/// (TimeSeriesStore, ShardedTimeSeriesStore, TierSpanView...). The stack
/// binds a TierSpanView, which reads the hot store alone without a tier
/// ladder; every one of them answers through the same fold.
template <typename Store>
void bind_query_hooks(ServeHooks& hooks, Store& store) {
  hooks.query_range = [&store](core::SeriesId id, const core::TimeRange& r) {
    return store.query_range(id, r);
  };
  hooks.latest = [&store](core::SeriesId id) { return store.latest(id); };
  hooks.aggregate = [&store](core::SeriesId id, const core::TimeRange& r,
                             store::Agg agg) {
    return store.aggregate(id, r, agg);
  };
  hooks.downsample = [&store](core::SeriesId id, const core::TimeRange& r,
                              core::Duration bucket, store::Agg agg) {
    return store.downsample(id, r, bucket, agg);
  };
  hooks.scan = [&store](core::SeriesId id, const core::TimeRange& r,
                        const std::function<bool(const core::TimedValue&)>& v) {
    return store.scan(id, r, v);
  };
}

/// Typed view over the serve.* instruments. e2ebench still reads it; new
/// readers use the catalog names (attach_to, obs::snapshot_of).
struct ServeStats {
  std::uint64_t connections_total = 0;
  std::uint64_t requests = 0;
  std::uint64_t request_errors = 0;
  std::uint64_t bad_frames = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t deltas_enqueued = 0;
  std::uint64_t egress_evicted_bulk = 0;
  std::uint64_t egress_evicted_standard = 0;
  std::uint64_t egress_coalesced_critical = 0;
  std::uint64_t reads_paused = 0;
  std::uint64_t idle_closed = 0;
  std::uint64_t relay_applied_batches = 0;
  std::uint64_t relay_applied_samples = 0;
  std::uint64_t relay_duplicates = 0;
  std::uint64_t relay_window_rejects = 0;
  std::uint64_t rollup_queries = 0;
  std::uint64_t rollup_deltas = 0;
  std::size_t connections = 0;
  std::size_t subscriptions = 0;
  std::size_t rollup_subscriptions = 0;
  std::size_t relay_sources = 0;
};

class ServeServer {
 public:
  ServeServer(ServeConfig config, ServeHooks hooks);
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Bind 127.0.0.1:port, start the reactor and writer threads. Returns
  /// false (with error() set) when the socket can't be set up.
  bool start();
  void stop();
  bool running() const { return running_; }
  const std::string& error() const { return error_; }

  /// The bound port (resolved after start() when config.port was 0).
  std::uint16_t port() const { return port_; }

  /// Ingest tap: fan `batch` out to every matching live subscription
  /// through the bounded egress queues. Never blocks on any client; safe
  /// from any thread. Returns the number of subscription deltas enqueued
  /// or coalesced.
  std::size_t publish_batch(const core::SampleBatch& batch);

  /// Rollup tap, called after each rollup tick: read every live kRollupSub
  /// level through hooks.rollup_query and push a kRollupDelta to each
  /// subscriber whose level differs from the last stat it was sent. Costs
  /// O(subscribers), not O(changed levels). Safe from any thread; never
  /// blocks on a client. Returns kRollupDelta frames enqueued.
  std::size_t publish_rollup();

  /// True when at least one kRollupSub subscription is live.
  bool has_rollup_subs() const;

  ServeStats stats() const;

  /// Catalog the serve.* instruments in `registry`.
  void attach_to(obs::ObsRegistry& registry) const;

 private:
  struct ScanCursor {
    core::SeriesId series{0};
    core::TimeRange range;
    core::TimePoint next_begin = 0;
    std::uint32_t page_points = 512;
  };

  struct Connection {
    int fd = -1;
    std::uint32_t id = 0;
    WireAssembler assembler;
    EgressQueue egress;
    std::atomic<bool> closed{false};
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> tx_bytes{0};
    // Set by the reactor while EPOLLIN is disarmed (egress over cap); read
    // by the writer to nudge the reactor once the queue drains.
    std::atomic<bool> paused{false};
    std::unordered_map<std::uint32_t, ScanCursor> cursors;
    std::uint32_t next_cursor = 1;
    /// Wall clock (steady, ms) of the last byte moved either way; the
    /// reactor's idle sweep reaps connections past idle_timeout_ms.
    std::atomic<std::int64_t> last_activity_ms{0};
    // Writer-thread state: partially-written bytes.
    std::vector<std::uint8_t> wbuf;
    std::size_t woff = 0;

    Connection(int fd_, std::uint32_t id_, std::size_t egress_cap,
               EgressCounters counters)
        : fd(fd_), id(id_), egress(egress_cap, counters) {}
    ~Connection();
  };

  struct Subscription {
    std::uint32_t id = 0;
    std::shared_ptr<Connection> conn;
    std::string pattern;
    /// Memoized match verdict per raw SeriesId (0 unknown, 1 yes, 2 no).
    std::vector<std::uint8_t> match_cache;
  };

  /// One live kRollupSub: exact (component, metric) level, plus the stat
  /// it was last sent (seeded from the subscribe ack; empty when absent).
  struct RollupSub {
    std::uint32_t id = 0;
    std::shared_ptr<Connection> conn;
    std::string component;
    std::string metric;
    rollup::RollupStat last;
  };

  void reactor_loop();
  void writer_loop(std::size_t writer_index);
  void accept_ready();
  void read_ready(const std::shared_ptr<Connection>& conn);
  void close_conn(const std::shared_ptr<Connection>& conn);
  void sweep_closed();
  void update_pause_state(const std::shared_ptr<Connection>& conn);
  void notify_writer(std::uint32_t conn_id);
  void wake_reactor();

  void reap_idle();
  /// Times one request into serve.request_us around dispatch_frame().
  void handle_frame(const std::shared_ptr<Connection>& conn,
                    const WireFrame& frame);
  void dispatch_frame(const std::shared_ptr<Connection>& conn,
                      const WireFrame& frame);
  void handle_relay_append(const std::shared_ptr<Connection>& conn,
                           const WireFrame& frame);
  void reply(const std::shared_ptr<Connection>& conn, MsgType type,
             std::uint32_t request_id, const std::vector<std::uint8_t>& body);
  void reply_error(const std::shared_ptr<Connection>& conn,
                   std::uint32_t request_id, const std::string& message);
  void handle_subscribe(const std::shared_ptr<Connection>& conn,
                        const WireFrame& frame);
  bool sub_matches(Subscription& sub, core::SeriesId id);

  ServeConfig config_;
  ServeHooks hooks_;
  std::string error_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: stop + writer->reactor nudges
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread reactor_;

  // Connections: reactor owns the map; writers hold shared_ptr copies while
  // writing, so an fd is closed only after both sides let go.
  std::unordered_map<int, std::shared_ptr<Connection>> conns_;
  std::uint32_t next_conn_id_ = 1;

  struct Writer {
    std::thread thread;
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::shared_ptr<Connection>> conns;
    bool nudged = false;
  };
  std::vector<std::unique_ptr<Writer>> writers_;

  /// Relay watermark per source id: the highest seq applied. Appends apply
  /// strictly in seq order, so every seq at or below it is applied.
  mutable std::mutex relay_mu_;
  std::unordered_map<std::uint64_t, std::uint64_t> relay_watermarks_;

  mutable std::mutex subs_mu_;
  std::vector<Subscription> subs_;
  std::vector<RollupSub> rollup_subs_;  // guarded by subs_mu_
  std::atomic<std::size_t> rollup_sub_count_{0};
  std::uint32_t next_sub_id_ = 1;
  /// The request handle_frame() is timing (reactor thread only); reply()
  /// finishes it before queuing the response.
  obs::Span* request_span_ = nullptr;

  // serve.* instruments (server-owned; see attach_to).
  obs::Counter connections_total_;
  obs::Gauge connections_;
  obs::Gauge subscriptions_;
  obs::Counter requests_;
  obs::Counter request_errors_;
  obs::Counter bad_frames_;
  obs::Counter bytes_in_;
  obs::Counter bytes_out_;
  obs::Counter deltas_enqueued_;
  obs::Counter evicted_bulk_;
  obs::Counter evicted_standard_;
  obs::Counter coalesced_critical_;
  obs::Counter reads_paused_;
  obs::Counter idle_closed_;
  obs::Counter relay_applied_batches_;
  obs::Counter relay_applied_samples_;
  obs::Counter relay_duplicates_;
  obs::Counter relay_window_rejects_;
  obs::Counter relay_refusals_;
  obs::Counter rollup_queries_;
  obs::Counter rollup_deltas_;
  obs::Gauge rollup_subs_gauge_;
  obs::Gauge relay_sources_gauge_;
  obs::Gauge egress_depth_hwm_;
  obs::Histogram request_us_;
  obs::Histogram delta_fanout_us_;
};

}  // namespace hpcmon::serve
