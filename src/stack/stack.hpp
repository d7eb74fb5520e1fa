// MonitoringStack: config-driven assembly of the complete pipeline.
//
// Table I (Architecture): "changes in data direction and data access easily
// configured and changed" and "extensibility and modularity are fundamental".
// MonitoringStack wires samplers -> EventRouter -> numeric store / log store /
// job store, plus the rule engine -> alert manager -> action dispatcher
// chain, entirely from a flat Config — the deployment description a site
// would keep in version control. Every subsystem remains reachable for
// extension (add samplers, rules, sinks after construction). StackOptions
// below lists every key the Config may hold.
#pragma once

#include <chrono>
#include <memory>

#include "analysis/detector_bank.hpp"
#include "analysis/novelty.hpp"
#include "analysis/rules.hpp"
#include "collect/collection.hpp"
#include "collect/health.hpp"
#include "collect/probes.hpp"
#include "collect/samplers.hpp"
#include "core/config.hpp"
#include "ingest/pipeline.hpp"
#include "ingest/sharded_store.hpp"
#include "obs/exporter.hpp"
#include "obs/registry.hpp"
#include "relay/client.hpp"
#include "resilience/breaker.hpp"
#include "resilience/degradation.hpp"
#include "resilience/fault.hpp"
#include "resilience/supervisor.hpp"
#include "resilience/wal.hpp"
#include "response/actions.hpp"
#include "response/alerts.hpp"
#include "response/gate.hpp"
#include "rollup/tree.hpp"
#include "serve/server.hpp"
#include "store/compactor.hpp"
#include "store/jobstore.hpp"
#include "store/logstore.hpp"
#include "store/tier.hpp"
#include "transport/event_router.hpp"

namespace hpcmon::stack {

/// Everything a MonitoringStack is built from, read once from the Config by
/// parse(). Each field names its key; a key whose tier is off is accepted
/// and ignored. Values that belong to a component live in that component's
/// struct, so each default is declared once, by the component.
struct StackOptions {
  core::Duration sample_interval = core::kMinute;       // sample_interval_s
  core::Duration log_interval = 15 * core::kSecond;     // log_interval_s
  core::Duration probe_interval = 10 * core::kMinute;   // probe_interval_s,
  core::Duration health_interval = 10 * core::kMinute;  // health_interval_s:
                                                        // 0 turns either off
  std::size_t chunk_points = 512;  // chunk_points: head seal threshold
  bool rules = true;               // rules: standard platform rule set
  bool numeric_alerts = true;      // numeric_alerts: detector bank
  bool novelty = false;            // novelty: log-template novelty
  core::Duration novelty_training = 4 * core::kHour;  // novelty_training_s
  bool gate_pre = false;   // gate_pre, gate_post: CSCS-style GPU job gating
  bool gate_post = false;
  core::Duration gate_repair = 30 * core::kMinute;  // gate_repair_s
  bool quarantine_on_hw_critical = false;  // quarantine_on_hw_critical

  /// ingest_shards: > 0 routes numeric samples through the threaded ingest
  /// tier into that many store shards; 0 keeps one shard and appends inline
  /// on the collecting thread (the thread-free, deterministic default).
  std::size_t ingest_shards = 0;
  ingest::IngestConfig ingest;  // ingest_queue_cap, ingest_policy
  bool ingest_autostart = true;  // ingest_autostart: false = workers idle
  bool degradation = false;  // degradation: storm-mode controller
  /// degradation_interval_s: the controller's evaluation cadence, and the
  /// WAL self-heal's (which runs whenever wal_path is set).
  core::Duration degradation_interval = core::kMinute;

  /// wal_path (wal.dir): when set, every sample frame is appended to a
  /// segmented write-ahead log there before ingestion, and segments left by
  /// a previous incarnation are replayed at construction. wal_segment_bytes,
  /// dead_letter_cap.
  resilience::WalOptions wal;
  int sampler_deadline_ms = 0;  // > 0: run each sampler under a watchdog
  int breaker_threshold = 0;    // > 0: wrap each sampler in a breaker
  resilience::BreakerConfig breaker;  // breaker_cooldown_s

  /// Set by the presence of serve_port: serve on 127.0.0.1:<serve_port>, 0
  /// binding an ephemeral port. serve_writer_threads, serve_idle_timeout_ms.
  bool serve_enable = false;
  serve::ServeConfig serve;
  /// relay_upstream (relay.upstream_port): > 0 forwards every numeric batch
  /// to the aggregator serving there. relay_source, relay_queue_cap,
  /// relay_backoff_ms, relay_backoff_max_ms.
  relay::RelayConfig relay;

  /// tier_dir: journaled on-disk resolution tiers, recovered before the WAL
  /// replays. It is the only cold tier and the only retention: without it
  /// sealed chunks stay hot and the WAL is never truncated.
  std::string tier_dir;
  /// tier_policy: "res_s:crit_s,std_s,bulk_s;..." per tier, res_s 0 = raw.
  store::TierPolicy tier_policy = store::TierPolicy::standard();
  store::CompactorOptions compactor;              // tier_hot_window_s
  core::Duration compact_interval = core::kHour;  // compact_interval_s
  /// tier_disk_budget_mb: the denominator of the compact.disk_fill gauge.
  std::int64_t tier_disk_budget_bytes = std::int64_t{1024} << 20;
  bool rollup_enable = false;  // rollup_enable: topology rollup tree
  core::Duration rollup_tick = 5 * core::kSecond;  // rollup_tick_s

  /// Fill every field from `config`. An unknown key, a value that does not
  /// parse completely, or one out of range (a period below 1 s, a count or
  /// capacity below 1, a port above 65535, a tier that keeps nothing) is an
  /// error that names the key and the value.
  static core::Result<StackOptions> parse(const core::Config& config);
};

/// What shutdown() left behind when its drain deadline expired. With a
/// healthy pipeline everything drains and the report is all zeros; a wedged
/// tier (workers never started, a hung store) is REPORTED instead of hanging
/// teardown forever — the paper's operational lesson that the monitor must
/// never become the thing you cannot restart.
struct ShutdownReport {
  bool drained = true;  // ingest in-flight reached zero within the deadline
  std::int64_t abandoned_batches = 0;  // sub-batches still queued at deadline
  std::size_t dead_letters = 0;        // frames stranded in the WAL DLQ
  std::size_t relay_unacked = 0;       // relay entries still unacked at stop
                                       // (held in memory only; a restarted
                                       // node does not resend them)
  bool clean() const { return drained && abandoned_batches == 0; }
};

class MonitoringStack {
 public:
  /// Assemble and attach the full pipeline to `cluster` per `config`.
  /// The cluster must outlive the stack. The config is parsed first
  /// (StackOptions::parse); a rejected config throws std::invalid_argument
  /// carrying the parse error before any file, thread or schedule exists.
  /// When `wal_path` holds segments from a previous incarnation, they are
  /// replayed into the store here, before any new collection happens.
  ///
  /// With a non-null `chaos` (the chaos harness) every fault surface is
  /// threaded through it: samplers are wrapped in FaultySampler, and the
  /// WAL draws a delivery fault before each try and a file fault before
  /// each physical append. The plan must outlive the stack (and any
  /// hung sampler threads; call chaos->release_hangs() before teardown).
  MonitoringStack(sim::Cluster& cluster, const core::Config& config,
                  resilience::FaultPlan* chaos = nullptr);

  /// Orderly teardown: drain the ingest pipeline into the stores (bounded by
  /// `deadline` of real time), flush the WAL, then stop the workers. Work
  /// still queued when the deadline expires is abandoned and reported.
  /// Idempotent; the destructor calls it, so no buffered sample is ever
  /// silently lost on destruction — and a wedged tier cannot hang it.
  ShutdownReport shutdown(
      std::chrono::milliseconds deadline = std::chrono::milliseconds(5000));

  /// Crash drill: make the destructor skip shutdown() — buffered/hot state
  /// is abandoned exactly as a real crash would abandon it (worker threads
  /// are still joined; a process can't leak threads into the next test).
  /// Frames posted to the WAL and not yet decided are dropped at once:
  /// they reach neither the log nor the store. Pair with a fresh
  /// MonitoringStack on the same wal_path to recover.
  void simulate_crash();

  ~MonitoringStack();

  // -- Data access -----------------------------------------------------------
  store::LogStore& logs() { return logs_; }
  store::JobStore& jobs() { return jobs_; }
  transport::EventRouter& router() { return router_; }
  response::AlertManager& alerts() { return alerts_; }
  response::ActionDispatcher& actions() { return actions_; }
  analysis::RuleEngine& rules() { return rules_; }
  analysis::DetectorBank& detectors() { return detectors_; }
  collect::CollectionService& collection() { return collection_; }
  sim::Cluster& cluster() { return cluster_; }

  /// Threaded ingest tier; nullptr unless ingest_shards > 0. When enabled,
  /// numeric samples land in sharded_store() (asynchronously — call
  /// drain_ingest() before querying) and the pipeline's self-metrics are
  /// re-ingested as "ingest.*" series every sample sweep.
  ingest::IngestPipeline* ingest_pipeline() { return ingest_.get(); }
  /// The numeric store, never null: max(1, ingest_shards) shards. Without
  /// the ingest tier every batch is appended inline, so points are visible
  /// as soon as the sweep that collected them returns.
  const ingest::ShardedTimeSeriesStore* sharded_store() const {
    return &sharded_;
  }
  ingest::ShardedTimeSeriesStore* sharded_store() { return &sharded_; }
  /// Wait until the ingest tier has appended everything submitted so far.
  void drain_ingest() {
    if (ingest_) ingest_->drain();
  }

  // -- Resilience tier -------------------------------------------------------
  /// Write-ahead log; nullptr unless wal_path is configured.
  const resilience::WriteAheadLog* wal() const { return wal_.get(); }
  /// Replay outcome of the WAL recovery performed at construction.
  const resilience::ReplayStats& replay_stats() const { return replay_stats_; }
  /// The same log, for the publish path: deliver() retries and
  /// dead-letters, redeliver() flushes dead letters after a disk recovers.
  resilience::WriteAheadLog* wal_delivery() { return wal_.get(); }
  /// Supervised sampler wrappers (empty unless breaker_threshold or
  /// sampler_deadline_ms is set); exposes per-sampler breaker state.
  const std::vector<resilience::SupervisedSampler*>& supervised_samplers()
      const {
    return supervised_;
  }
  /// Storm-mode controller; nullptr unless `degradation` is configured.
  resilience::DegradationController* degradation() {
    return degradation_.get();
  }
  const resilience::DegradationController* degradation() const {
    return degradation_.get();
  }

  // -- Tiered retention ------------------------------------------------------
  /// Durable tier ladder; nullptr unless tier_dir is configured (or its
  /// recovery failed, in which case the stack serves hot-only).
  store::TierStore* tiers() { return tiers_.get(); }
  const store::TierStore* tiers() const { return tiers_.get(); }
  /// Background compactor driving the ladder; nullptr without tiers.
  store::Compactor* compactor() { return compactor_.get(); }
  /// Breaker guarding compactor I/O: a sick disk opens it and the stack
  /// degrades to "stop compacting, keep serving".
  const resilience::CircuitBreaker* compact_breaker() const {
    return compact_breaker_.get();
  }
  /// One compaction attempt through the breaker at simulated time `now`
  /// (the scheduled cadence calls this; tests/benches drive it directly).
  void run_compaction(core::TimePoint now);

  // -- Rollup tier -----------------------------------------------------------
  /// Topology rollup tree; nullptr unless rollup_enable = 1. Its snapshot()
  /// is the fleet-at-a-glance read every fleet-wide path answers from.
  rollup::RollupTree* rollup() { return rollup_.get(); }
  const rollup::RollupTree* rollup() const { return rollup_.get(); }
  /// One coalescing rollup merge: drain shard deltas, publish a fresh
  /// snapshot, push changed levels to live kRollupSub subscribers (the
  /// scheduled rollup_tick_s cadence calls this; tests/benches drive it
  /// directly). No-op without the tree.
  void rollup_tick();

  // -- Serving tier ----------------------------------------------------------
  /// Network front door (queries, scans, live subscriptions, admin);
  /// nullptr unless `serve_port` is configured. The bound port (ephemeral
  /// when serve_port = 0) is serve()->port().
  serve::ServeServer* serve() { return serve_.get(); }
  const serve::ServeServer* serve() const { return serve_.get(); }

  // -- Relay tier ------------------------------------------------------------
  /// Durable upstream forwarder; nullptr unless relay_upstream is configured.
  /// Every numeric batch the router sees is also submitted here and shipped
  /// to the aggregator with at-least-once, exactly-applied semantics.
  relay::RelayClient* relay() { return relay_.get(); }
  const relay::RelayClient* relay() const { return relay_.get(); }

  /// Novelty reports accumulated so far (empty unless novelty = true).
  const std::vector<analysis::NoveltyEvent>& novelty_reports() const {
    return novelty_reports_;
  }
  const response::GateStats* gate_stats() const {
    return gate_ ? &gate_->stats() : nullptr;
  }

  // -- Self-observability ----------------------------------------------------
  /// The one catalog every tier's instruments live in.
  const obs::ObsRegistry& obs() const { return obs_; }
  /// Refresh the live fill gauges (queue fill, breaker fraction) and take a
  /// merged snapshot of every instrument. This one snapshot feeds the
  /// degradation control loop, the hpcmon.self.* re-ingest, status(), and
  /// the chaos assertions — identical numbers, by construction.
  obs::ObsSnapshot obs_snapshot() const;
  /// One-line status summary for operator consoles.
  std::string status() const;

 private:
  void on_log_frame(const transport::Frame& frame);
  void apply_degradation(core::DegradationMode mode);
  void refresh_live_gauges() const;
  /// Hand a numeric batch to the store: queued on the ingest tier when it
  /// exists (a worker appends it once the WAL has decided `wal_ticket`),
  /// appended inline otherwise. Returns the samples handed over.
  std::size_t store_batch(const core::SampleBatch& batch,
                          std::uint64_t wal_ticket = 0);

  sim::Cluster& cluster_;
  // Parsed first: a rejected config throws before any tier is built.
  const StackOptions options_;
  // Declared before every tier: instruments attach into the registry at
  // construction and the registry must outlive their detachment-free
  // teardown (nobody snapshots during destruction).
  obs::ObsRegistry obs_;
  obs::ObsExporter exporter_;
  mutable resilience::HealthSignalAssembler health_assembler_;
  transport::EventRouter router_;
  store::LogStore logs_;
  store::JobStore jobs_;
  analysis::RuleEngine rules_;
  analysis::DetectorBank detectors_;
  response::AlertManager alerts_;
  response::ActionDispatcher actions_;
  collect::CollectionService collection_;
  std::unique_ptr<collect::HealthCheckSuite> health_;
  std::unique_ptr<response::HealthGate> gate_;
  std::unique_ptr<analysis::NoveltyDetector> novelty_;
  std::vector<analysis::NoveltyEvent> novelty_reports_;
  // Declared before the store: the shard appenders observe every sample
  // into the tree, so the tree must outlive them (ingest_ joins its workers
  // first, then sharded_ goes, then rollup_).
  std::unique_ptr<rollup::RollupTree> rollup_;
  // Declaration order matters: ingest_ is destroyed (joining its workers)
  // before sharded_, which the workers append into.
  ingest::ShardedTimeSeriesStore sharded_;
  std::unique_ptr<ingest::IngestPipeline> ingest_;
  // Resilience tier (all optional, see config keys above).
  std::unique_ptr<resilience::WriteAheadLog> wal_;
  resilience::ReplayStats replay_stats_;
  std::vector<resilience::SupervisedSampler*> supervised_;  // owned by
                                                            // collection_
  std::unique_ptr<resilience::DegradationController> degradation_;
  // Tiered retention: the durable tier ladder, the compactor that drives
  // it, the breaker that guards its I/O, and the read view the serving tier
  // binds (the hot store alone until a ladder opens). Declared after the
  // store they reference.
  std::unique_ptr<store::TierStore> tiers_;
  std::unique_ptr<store::Compactor> compactor_;
  std::unique_ptr<resilience::CircuitBreaker> compact_breaker_;
  store::TierSpanView<ingest::ShardedTimeSeriesStore> span_{nullptr, &sharded_};
  // Declared after the stores/ingest tier: destroyed first, so the serve
  // threads stop answering before the data they serve is torn down.
  std::unique_ptr<serve::ServeServer> serve_;
  // Declared after serve_: the forwarder stops before the (local) serving
  // tier, and its worker thread is joined before any store teardown.
  std::unique_ptr<relay::RelayClient> relay_;
  resilience::FaultPlan* chaos_ = nullptr;  // not owned; see constructor
  // Registry-owned fill gauges the stack refreshes before each snapshot
  // (they summarize state the tiers do not hold as single instruments).
  obs::Gauge* queue_fill_gauge_ = nullptr;
  obs::Gauge* breaker_open_gauge_ = nullptr;
  obs::Gauge* disk_fill_gauge_ = nullptr;
  core::ComponentId self_component_ = core::kNoComponent;
  // Liveness flag captured by every event-queue closure the stack schedules:
  // the queue has no cancellation, so after a chaos-harness restart destroys
  // this stack mid-run, already-scheduled ticks fire as no-ops.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  bool crashed_ = false;
  bool shut_down_ = false;
};

}  // namespace hpcmon::stack
