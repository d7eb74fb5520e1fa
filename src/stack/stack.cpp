#include "stack/stack.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <stdexcept>

#include "core/strings.hpp"
#include "transport/codec.hpp"

namespace hpcmon::stack {

using core::Duration;
using core::kSecond;

namespace {

constexpr double kCorrosionAlertPpb = 10.0;  // ASHRAE G1 severity limit

/// All of `text` as a base-10 integer in [lo, hi].
std::optional<std::int64_t> parse_integer(std::string_view text,
                                          std::int64_t lo, std::int64_t hi) {
  std::int64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  const bool whole = ec == std::errc{} && stop == end;
  return whole && v >= lo && v <= hi ? std::optional(v) : std::nullopt;
}

/// "res_s:crit_s,std_s,bulk_s;..." (res_s 0 = raw); empty is the standard
/// ladder. Every tier must parse completely and keep something: a typo'd
/// ladder is refused, never read as one that silently expires data.
std::optional<store::TierPolicy> parse_ladder(std::string_view spec) {
  if (spec.empty()) return store::TierPolicy::standard();
  const auto seconds = [](std::string_view field) {
    return parse_integer(core::trim(field), 0,
                         std::numeric_limits<Duration>::max() / kSecond);
  };
  store::TierPolicy policy;
  for (const auto tier : core::split(spec, ';')) {
    const auto parts = core::split(tier, ':');
    if (parts.size() != 2) return std::nullopt;
    const auto keeps = core::split(parts[1], ',');
    const auto res = seconds(parts[0]);
    if (!res || keeps.size() != core::kPriorityClasses) return std::nullopt;
    store::TierSpec ts;
    ts.resolution = *res * kSecond;
    ts.agg = ts.resolution > 0 ? store::Agg::kMean : store::Agg::kLast;
    for (std::size_t c = 0; c < keeps.size(); ++c) {
      const auto keep = seconds(keeps[c]);
      if (!keep) return std::nullopt;
      ts.keep[c] = *keep * kSecond;
    }
    if (ts.keep == decltype(ts.keep){}) return std::nullopt;  // keeps nothing
    policy.tiers.push_back(ts);
  }
  return policy;
}

/// Reads a Config's keys strictly: a value must parse completely and be in
/// range. Keeps the first error, and finish() refuses any key that no read
/// asked for.
class KeyReader {
 public:
  explicit KeyReader(const core::Config& config) : config_(config) {}

  /// `key`, when present, as an integer in [lo, the largest T / scale],
  /// stored times `scale`. Returns whether the key is present.
  template <typename T>
  bool integer(std::string_view key, std::int64_t lo, T& out,
               std::int64_t scale = 1) {
    constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
    const auto hi = static_cast<std::int64_t>(std::min<std::uint64_t>(
                        std::numeric_limits<T>::max(), kMax)) / scale;
    const auto as_t = [&](std::string_view v) -> std::optional<T> {
      const auto i = parse_integer(v, lo, hi);
      return i ? std::optional(static_cast<T>(*i * scale)) : std::nullopt;
    };
    const auto low = static_cast<long long>(lo);
    const auto high = static_cast<long long>(hi);
    return parsed(key, as_t, out,
                  hi == kMax ? core::strformat("an integer >= %lld", low)
                             : core::strformat("an integer in [%lld, %lld]",
                                               low, high));
  }
  /// `key`, when present, as whole seconds >= lo.
  void seconds(std::string_view key, std::int64_t lo, Duration& out) {
    integer(key, lo, out, kSecond);
  }
  /// `key`, when present, through `parse`, for which nullopt is malformed.
  /// Returns whether the key is present.
  template <typename T, typename Parse>
  bool parsed(std::string_view key, Parse parse, T& out,
              std::string_view expected) {
    read_.push_back(key);
    const auto it = config_.entries().find(key);
    if (it == config_.entries().end()) return false;
    if (auto v = parse(it->second)) {
      out = std::move(*v);
    } else if (error_.empty()) {
      error_ = core::strformat("config key '%s' = '%s': expected %s",
                               it->first.c_str(), it->second.c_str(),
                               std::string(expected).c_str());
    }
    return true;
  }
  void flag(std::string_view key, bool& out) {
    const auto as_flag = [](std::string_view v) -> std::optional<bool> {
      if (v == "true" || v == "1" || v == "yes") return true;
      if (v == "false" || v == "0" || v == "no") return false;
      return std::nullopt;
    };
    parsed(key, as_flag, out, "true, false, 1, 0, yes or no");
  }
  void text(std::string_view key, std::string& out) {
    parsed(key, [](const std::string& v) { return std::optional(v); }, out,
           "text");
  }

  core::Result<StackOptions> finish(StackOptions options) const {
    if (!error_.empty()) return core::Result<StackOptions>::error(error_);
    for (const auto& [key, text] : config_.entries()) {
      if (std::find(read_.begin(), read_.end(), key) == read_.end()) {
        return core::Result<StackOptions>::error(core::strformat(
            "unknown config key '%s' (value '%s')", key.c_str(),
            text.c_str()));
      }
    }
    return options;
  }

 private:
  const core::Config& config_;
  std::vector<std::string_view> read_;
  std::string error_;
};

StackOptions parse_or_throw(const core::Config& config) {
  auto parsed = StackOptions::parse(config);
  if (!parsed.is_ok()) throw std::invalid_argument(parsed.message());
  return std::move(parsed).take();
}

}  // namespace

// The stack's one key table. StackOptions says what each key does.
core::Result<StackOptions> StackOptions::parse(const core::Config& config) {
  KeyReader r(config);
  StackOptions o;
  r.seconds("sample_interval_s", 1, o.sample_interval);
  r.seconds("log_interval_s", 1, o.log_interval);
  r.seconds("probe_interval_s", 0, o.probe_interval);
  r.seconds("health_interval_s", 0, o.health_interval);
  r.integer("chunk_points", 1, o.chunk_points);
  r.flag("rules", o.rules);
  r.flag("numeric_alerts", o.numeric_alerts);
  r.flag("novelty", o.novelty);
  r.seconds("novelty_training_s", 0, o.novelty_training);
  r.flag("gate_pre", o.gate_pre);
  r.flag("gate_post", o.gate_post);
  r.seconds("gate_repair_s", 0, o.gate_repair);
  r.flag("quarantine_on_hw_critical", o.quarantine_on_hw_critical);
  r.integer("ingest_shards", 0, o.ingest_shards);
  r.integer("ingest_queue_cap", 1, o.ingest.queue_capacity);
  r.parsed("ingest_policy", ingest::policy_from_string, o.ingest.policy,
           "block, drop_oldest or reject");
  r.flag("ingest_autostart", o.ingest_autostart);
  r.flag("degradation", o.degradation);
  r.seconds("degradation_interval_s", 1, o.degradation_interval);
  r.text("wal_path", o.wal.dir);
  r.integer("wal_segment_bytes", 1, o.wal.segment_bytes);
  r.integer("dead_letter_cap", 1, o.wal.dead_letter_cap);
  r.integer("sampler_deadline_ms", 0, o.sampler_deadline_ms);
  r.integer("breaker_threshold", 0, o.breaker_threshold);
  r.seconds("breaker_cooldown_s", 0, o.breaker.cooldown);
  o.serve_enable = r.integer("serve_port", 0, o.serve.port);
  r.integer("serve_writer_threads", 1, o.serve.writer_threads);
  r.integer("serve_idle_timeout_ms", 0, o.serve.idle_timeout_ms);
  r.integer("relay_upstream", 0, o.relay.upstream_port);
  r.integer("relay_source", 0, o.relay.source_id);
  r.integer("relay_queue_cap", 1, o.relay.queue_cap);
  r.integer("relay_backoff_ms", 0, o.relay.backoff_ms);
  r.integer("relay_backoff_max_ms", 0, o.relay.backoff_max_ms);
  r.text("tier_dir", o.tier_dir);
  r.parsed("tier_policy", parse_ladder, o.tier_policy,
           "\"res_s:crit_s,std_s,bulk_s;...\", every tier keeping something");
  r.seconds("tier_hot_window_s", 0, o.compactor.hot_window);
  r.seconds("compact_interval_s", 1, o.compact_interval);
  r.integer("tier_disk_budget_mb", 1, o.tier_disk_budget_bytes, 1 << 20);
  r.flag("rollup_enable", o.rollup_enable);
  r.seconds("rollup_tick_s", 1, o.rollup_tick);
  return r.finish(std::move(o));
}

MonitoringStack::MonitoringStack(sim::Cluster& cluster,
                                 const core::Config& config,
                                 resilience::FaultPlan* chaos)
    : cluster_(cluster),
      options_(parse_or_throw(config)),
      detectors_(cluster.registry()),
      collection_(cluster),
      sharded_(std::max<std::size_t>(1, options_.ingest_shards),
               options_.chunk_points),
      chaos_(chaos) {
  const StackOptions& opts = options_;

  // Self-observability plane: every tier catalogs its instruments, its
  // stage histograms included, in obs_. One snapshot of this registry feeds
  // the degradation control loop, the hpcmon.self.* re-ingest, status(),
  // and the chaos assertions.
  collection_.attach_to(obs_);
  router_.attach_to(obs_);
  // The numeric store's read-path counters are the store.* instruments.
  sharded_.attach_to(obs_);

  // Optional threaded ingest tier (ingest_shards > 0). Without it every
  // numeric batch is appended inline (store_batch), so the default stack
  // stays thread-free, deterministic and reproducible.
  if (opts.ingest_shards > 0) {
    ingest::IngestConfig ic = opts.ingest;
    // Priority-aware shedding: the pipeline reads each series' class from
    // the registry (a lock-free read), so bulk drops first and critical is
    // never dropped.
    ic.priority_of = [this](core::SeriesId id) {
      return cluster_.registry().series_priority(id);
    };
    // Shard workers hold each routed sub-batch until the WAL has decided
    // its record (tickets exist only once wal_ does; see the router below).
    ic.wait_decided = [this](std::uint64_t ticket) {
      return wal_->wait_decided(ticket);
    };
    ingest_ = std::make_unique<ingest::IngestPipeline>(sharded_, ic);
    ingest_->attach_to(obs_);
    if (opts.ingest_autostart) ingest_->start();
    queue_fill_gauge_ = &obs_.gauge(
        {"ingest.queue_fill", "frac",
         "max shard queue depth / capacity (refreshed per snapshot)"});
  }

  // Topology rollup tree (rollup_enable = 1): every sample folds into a
  // per-shard pending cell on the append path, and the scheduled coalescing
  // tick publishes an immutable snapshot that the heatmap, fleet glance,
  // and kRollupQuery read paths answer from in O(1). Built BEFORE tier
  // recovery and WAL replay so restored history is rolled up too.
  if (opts.rollup_enable) {
    rollup::RollupConfig rc;
    rc.shards = sharded_.shard_count();
    rollup_ = std::make_unique<rollup::RollupTree>(cluster_.registry(), rc);
    rollup_->attach_to(obs_);
    // The store observes every accepted append into the tree and wires its
    // series-gone listeners to forget_series.
    sharded_.attach_rollup(rollup_.get());
    cluster_.events().schedule_every(
        cluster_.now() + opts.rollup_tick, opts.rollup_tick,
        [this, alive = alive_](core::TimePoint) {
          if (!*alive) return;
          rollup_tick();
        });
  }

  // Tiered retention: recover the durable tier ladder BEFORE the WAL
  // replays, so the watermark is known and samples already durable in a
  // tier are filtered out of the replay instead of re-ingested.
  if (!opts.tier_dir.empty()) {
    store::TierStore::Options topts;
    topts.dir = opts.tier_dir;
    topts.policy = opts.tier_policy;
    topts.faults = chaos_;
    tiers_ = std::make_unique<store::TierStore>(std::move(topts));
    if (!tiers_->open().is_ok()) {
      // Unrecoverable tier directory: serve hot-only rather than refuse to
      // start — the monitor must come up even when its history cannot.
      tiers_.reset();
    }
  }
  if (tiers_) {
    tiers_->attach_to(obs_);
    std::vector<store::TimeSeriesStore*> shards;
    for (std::size_t i = 0; i < sharded_.shard_count(); ++i) {
      shards.push_back(&sharded_.shard(i));
    }
    span_ = {tiers_.get(), &sharded_};
    store::CompactorOptions co = opts.compactor;
    co.priority_of = [this](core::SeriesId id) {
      return cluster_.registry().series_priority(id);
    };
    compactor_ = std::make_unique<store::Compactor>(std::move(shards),
                                                    tiers_.get(),
                                                    std::move(co));
    compactor_->attach_to(obs_);
    // Compactor I/O runs behind a breaker: persistent disk failure opens it
    // and the stack stops compacting while ingest and serving continue.
    compact_breaker_ = std::make_unique<resilience::CircuitBreaker>(
        resilience::BreakerConfig{}, 0xD15C);
    compact_breaker_->attach_to(obs_);
    disk_fill_gauge_ = &obs_.gauge(
        {"compact.disk_fill", "frac",
         "tier-ladder disk bytes / tier_disk_budget_mb (refreshed per "
         "snapshot)"});
    cluster_.events().schedule_every(
        cluster_.now() + opts.compact_interval, opts.compact_interval,
        [this, alive = alive_](core::TimePoint t) {
          if (!*alive) return;
          run_compaction(t);
        });
  }

  // Resilience tier: WAL recovery + durable append, sampler supervision.
  // Replay happens BEFORE collection is wired so restored history cannot
  // interleave with new sweeps.
  if (!opts.wal.dir.empty()) {
    replay_stats_ = resilience::WriteAheadLog::replay(
        opts.wal.dir, [this](core::SampleBatch&& batch) {
          // Samples below the tier watermark are already durable in a tier
          // file; replaying them would double-count against the span view.
          if (tiers_) {
            const auto wm = tiers_->watermark();
            auto& s = batch.samples;
            s.erase(std::remove_if(s.begin(), s.end(),
                                   [wm](const core::Sample& x) {
                                     return x.time < wm;
                                   }),
                    s.end());
          }
          sharded_.append_batch(batch.samples);
        });
    // Replay ran exactly once, at construction: export its outcome through
    // registry-owned counters so it appears in the same snapshot as
    // everything else.
    obs_.counter({"resilience.replay_records", "records",
                  "intact WAL records restored at construction"})
        .add(replay_stats_.records);
    obs_.counter({"resilience.replay_samples", "samples",
                  "samples restored from the WAL at construction"})
        .add(replay_stats_.samples);
    obs_.counter({"resilience.replay_corrupt_skipped", "records",
                  "CRC-mismatched WAL records skipped during replay"})
        .add(replay_stats_.corrupt_skipped);
    obs_.counter({"resilience.replay_torn_tails", "records",
                  "torn trailing WAL records tolerated during replay"})
        .add(replay_stats_.torn_tails);
    resilience::WalOptions wo = opts.wal;
    wo.faults = chaos_;
    wal_ = std::make_unique<resilience::WriteAheadLog>(wo);
    wal_->attach_to(obs_);
  }

  const bool supervise =
      opts.sampler_deadline_ms > 0 || opts.breaker_threshold > 0;
  if (supervise) {
    breaker_open_gauge_ = &obs_.gauge(
        {"resilience.breaker_open_frac", "frac",
         "open breakers / supervised samplers (refreshed per snapshot)"});
  }
  std::uint64_t supervisor_seed = 0xC0FFEE;
  // Wrap a sampler with watchdog + breaker when supervision is configured;
  // a pass-through otherwise so the default stack stays bit-deterministic.
  const auto supervised =
      [&](std::unique_ptr<collect::Sampler> sampler,
          core::Priority priority = core::Priority::kStandard)
      -> std::unique_ptr<collect::Sampler> {
    // Chaos builds interpose fault injection between the real sampler and
    // its supervisor, so injected hangs/errors hit the watchdog + breaker
    // exactly where real ones would (scenarios should configure
    // supervision; a bare FaultySampler throws into the sweep).
    if (chaos_ != nullptr) {
      sampler = std::make_unique<resilience::FaultySampler>(std::move(sampler),
                                                            *chaos_);
    }
    if (!supervise) return sampler;
    resilience::SupervisorOptions so;
    so.deadline_ms = opts.sampler_deadline_ms;
    so.breaker = opts.breaker;
    if (opts.breaker_threshold > 0) {
      so.breaker.failure_threshold = opts.breaker_threshold;
    }
    so.seed = supervisor_seed++;
    so.priority = priority;
    auto wrapper = std::make_unique<resilience::SupervisedSampler>(
        std::move(sampler), so);
    wrapper->attach_to(obs_);
    supervised_.push_back(wrapper.get());
    return wrapper;
  };

  // Collection -> router.
  for (auto& sampler : collect::make_all_samplers(cluster_)) {
    collection_.add_sampler(supervised(std::move(sampler)),
                            opts.sample_interval,
                            collect::router_sample_sink(router_));
  }
  collection_.add_log_collector(opts.log_interval,
                                collect::router_log_sink(router_));

  // Optional probe suite.
  if (opts.probe_interval > 0) {
    collect::ProbeConfig pc;
    pc.probe_nodes = {0, cluster_.topology().num_nodes() / 2};
    collection_.add_sampler(
        supervised(
            std::make_unique<collect::ProbeSuite>(cluster_, pc, core::Rng(101))),
        opts.probe_interval, collect::router_sample_sink(router_));
  }
  // Optional health battery. Critical priority: the health signals are what
  // operators steer by during a storm, so the degradation controller never
  // widens this sampler's cadence.
  if (opts.health_interval > 0) {
    collection_.add_sampler(
        supervised(std::make_unique<collect::HealthCheckSuite>(
                       cluster_, collect::HealthConfig{}),
                   core::Priority::kCritical),
        opts.health_interval, collect::router_sample_sink(router_));
  }

  // Storm mode: the degradation controller closes the loop from the stack's
  // own health telemetry to priority-aware shedding. Evaluations run on the
  // simulated timeline; mode changes reach the ingest door immediately and
  // widen non-critical sampler cadence. Health signals are assembled from
  // the SAME obs snapshot the exporter re-ingests, so the control loop and
  // the operator report cannot disagree.
  if (opts.degradation) {
    degradation_ =
        std::make_unique<resilience::DegradationController>(
            resilience::DegradationConfig{});
    degradation_->attach_to(obs_);
    degradation_->on_change(
        [this](core::DegradationMode mode) { apply_degradation(mode); });
  }
  // The WAL self-heals on the controller's cadence, with or without the
  // controller: rotate a poisoned WAL onto a fresh segment, then run one
  // redelivery pass over the dead-letter queue. While the fault persists
  // the letters stay put (and keep dlq pressure honest); once the path
  // recovers the queue drains. With storm mode on, the heal runs before
  // the controller's reading, so the controller can stand down.
  if (wal_ || degradation_) {
    cluster_.events().schedule_every(
        cluster_.now() + opts.degradation_interval, opts.degradation_interval,
        [this, alive = alive_](core::TimePoint) {
          if (!*alive) return;
          if (wal_ && wal_->poisoned()) wal_->rotate();
          if (wal_ && wal_->dead_letter_count() > 0) wal_->redeliver();
          if (degradation_) {
            degradation_->evaluate(health_assembler_.assemble(obs_snapshot()));
          }
        });
  }

  // Serving tier: the network front door (queries, streamed scans, live
  // subscriptions, admin surface) — off unless serve_port is present in the
  // config. serve_port = 0 binds an ephemeral port (serve()->port()).
  if (opts.serve_enable) {
    serve::ServeConfig sc = opts.serve;
    sc.socket_faults = chaos_;
    serve::ServeHooks hooks;
    // Queries answer through the span view: the hot store alone without a
    // tier ladder, byte-identical to what in-process callers read, and
    // with one, back through every resolution tier.
    serve::bind_query_hooks(hooks, span_);
    hooks.registry = &cluster_.registry();
    hooks.status = [this] { return status(); };
    hooks.set_mode = [this](std::optional<core::DegradationMode> mode) {
      // Manual storm-mode override through the same enforcement path the
      // controller's on_change uses; nullopt releases back to NORMAL (a
      // running controller re-asserts its own verdict next evaluation).
      const auto m = mode.value_or(core::DegradationMode::kNormal);
      if (degradation_) {
        apply_degradation(m);
      } else if (ingest_) {
        ingest_->set_mode(m);
      } else {
        return false;
      }
      return true;
    };
    hooks.wal_rotate = [this] {
      if (!wal_) return false;
      wal_->rotate();
      return true;
    };
    // Rollup levels by name: resolve the component through the registry and
    // answer from the tree's current snapshot — never a store scatter-
    // gather. Unbound (=> kError to the client) without the tree.
    if (rollup_) {
      hooks.rollup_query =
          [this](std::string_view component,
                 std::string_view metric) -> std::optional<rollup::RollupStat> {
        const auto comp = cluster_.registry().find_component(component);
        if (!comp) return std::nullopt;
        const auto snap = rollup_->snapshot();
        const auto* s = snap->find(*comp, metric);
        if (s == nullptr) return std::nullopt;
        return *s;
      };
    }
    // Aggregator ingest for relayed batches: the server dedupes by
    // (source, seq) before calling this, so the hook applies each novel
    // batch through the SAME pathway local samples take — WAL first (the
    // wire payload, which the WAL's record writer stores compact like any
    // frame), then the numeric store, then the live-subscription fan-out.
    // A batch the WAL cannot log is refused, neither applied nor
    // dead-lettered: the ack would tell the client to forget it, and the
    // client still holds it to resend.
    // Detector/rule analysis stays node-side (it already ran there).
    hooks.relay_apply =
        [this](const transport::Frame& frame,
               const core::SampleBatch& batch) -> std::optional<std::size_t> {
      constexpr auto keep = resilience::WriteAheadLog::OnFailure::kCallerKeeps;
      if (wal_ && !wal_->deliver(frame, keep)) return std::nullopt;
      const std::size_t applied = store_batch(batch);
      if (serve_) serve_->publish_batch(batch);
      return applied;
    };
    serve_ = std::make_unique<serve::ServeServer>(sc, std::move(hooks));
    serve_->attach_to(obs_);
    serve_->start();
  }

  // Relay tier: forward every numeric batch to an upstream aggregator with
  // at-least-once, exactly-applied semantics — off unless relay_upstream
  // names the aggregator's serve port.
  if (opts.relay.upstream_port > 0) {
    relay::RelayConfig rc = opts.relay;
    // Seq-lease durability rides in the WAL directory when one exists; a
    // WAL-less node keeps volatile state (the hello heal still prevents
    // seq reuse after a restart).
    rc.state_path = opts.wal.dir.empty() ? "" : opts.wal.dir + "/relay.state";
    rc.priority_of = [this](core::SeriesId id) {
      return cluster_.registry().series_priority(id);
    };
    rc.socket_faults = chaos_;
    rc.fs_faults = chaos_;
    relay_ = std::make_unique<relay::RelayClient>(std::move(rc));
    relay_->attach_to(obs_);
    relay_->start();
  }

  // The monitor monitors itself: one unified export task re-ingests the
  // whole obs snapshot as hpcmon.self.* series every sweep (replacing the
  // per-tier self-ingest plumbing). Instruments are registered critical by
  // default — the monitor's vitals must survive the storms they report on.
  if (ingest_ || wal_ || supervise || degradation_) {
    self_component_ = cluster_.registry().register_component(
        {"hpcmon.self", core::ComponentKind::kService,
         cluster_.topology().system()});
    cluster_.events().schedule_every(
        cluster_.now() + opts.sample_interval, opts.sample_interval,
        [this, alive = alive_](core::TimePoint t) {
          if (!*alive) return;
          core::SampleBatch self;
          self.sweep_time = t;
          self.origin = self_component_;
          self.samples = exporter_.to_samples(obs_snapshot(),
                                              cluster_.registry(),
                                              self_component_, t);
          store_batch(self);
          if (serve_) serve_->publish_batch(self);
        });
  }

  // Numeric alerting: detector bank on key series (Table I: triggers at
  // arbitrary points in the data pathway, here in-stream).
  if (opts.numeric_alerts) {
    detectors_.watch("node.low_memory", "node.mem_free_gb",
                     analysis::below_factory(
                         collect::HealthConfig{}.min_free_mem_gb, 4.0));
    detectors_.watch("facility.corrosion", "facility.corrosion_ppb",
                     analysis::above_factory(kCorrosionAlertPpb, 2.0));
    detectors_.watch("fs.latency_outlier", "fs.ost.latency_ms",
                     analysis::mad_factory(60, 8.0));
  }

  // Router -> stores (+ analysis on both pathways).
  router_.subscribe(transport::FrameType::kSamples,
                    [this](const transport::Frame& f) {
                      auto batch = transport::decode_samples(f);
                      if (!batch.is_ok()) return;
                      if (options_.numeric_alerts) {
                        for (const auto& a : detectors_.process(batch.value())) {
                          alerts_.raise(
                              {a.event.time, response::AlertSeverity::kWarning,
                               a.watch_name, a.component,
                               core::strformat("%s=%.3g (%s score %.1f)",
                                               a.metric.c_str(), a.event.value,
                                               a.event.detector.c_str(),
                                               a.event.score)});
                        }
                      }
                      // Write-ahead: the frame is durable (or dead-lettered
                      // and counted) before the in-memory store sees it.
                      // With shard workers the router only posts it; the
                      // WAL's writer thread logs it, and the workers wait
                      // for its ticket before they append.
                      std::uint64_t ticket = 0;
                      if (wal_ && ingest_) {
                        const auto posted = wal_->post(f);
                        if (posted.is_ok()) ticket = posted.value();
                      } else if (wal_) {
                        wal_->deliver(f);
                      }
                      store_batch(batch.value(), ticket);
                      // Live-subscription tap: fan the batch out to serve
                      // clients through bounded egress queues (never blocks
                      // on a slow client).
                      if (serve_) serve_->publish_batch(batch.value());
                      // Upstream tap: hand the batch to the relay tier for
                      // durable forwarding (never blocks; sheds bulk first
                      // under pressure, critical never).
                      if (relay_) relay_->submit(batch.value());
                    });
  router_.subscribe(transport::FrameType::kLogs,
                    [this](const transport::Frame& f) { on_log_frame(f); });

  // Rules / novelty / response.
  if (opts.rules) {
    for (auto& r : analysis::standard_platform_rules()) {
      rules_.add_rule(std::move(r));
    }
  }
  if (opts.novelty) {
    analysis::NoveltyParams np;
    np.training_until = opts.novelty_training;
    novelty_ = std::make_unique<analysis::NoveltyDetector>(np);
  }
  alerts_.add_sink(
      [this](const response::Alert& a) { actions_.dispatch(a); });
  if (opts.quarantine_on_hw_critical) {
    actions_.bind("hw_critical", response::AlertSeverity::kWarning,
                  "quarantine",
                  response::make_quarantine_action(cluster_, opts.gate_repair));
  }

  // Job lifecycle -> job store.
  cluster_.scheduler().set_on_start([this](const sim::JobRecord& rec) {
    store::JobMeta m;
    m.id = rec.id;
    m.app_name = rec.request.profile.name;
    m.nodes = rec.nodes;
    m.submit_time = rec.submit_time;
    m.start_time = rec.start_time;
    jobs_.record_start(m);
  });
  cluster_.scheduler().set_on_end([this](const sim::JobRecord& rec) {
    store::JobMeta m;
    m.id = rec.id;
    m.app_name = rec.request.profile.name;
    m.nodes = rec.nodes;
    m.submit_time = rec.submit_time;
    m.start_time = rec.start_time;
    m.end_time = rec.end_time;
    m.failed = rec.state == sim::JobState::kFailed;
    jobs_.record_end(m);
  });

  // Job gating.
  if (opts.gate_pre || opts.gate_post) {
    gate_ = std::make_unique<response::HealthGate>(cluster_, opts.gate_repair);
    gate_->attach(opts.gate_pre, opts.gate_post);
  }
}

MonitoringStack::~MonitoringStack() {
  // Scheduled closures outlive the stack in the event queue; flip the
  // liveness flag first so any tick firing after this point is a no-op.
  *alive_ = false;
  if (!crashed_) shutdown();
  // A simulated crash still joins the worker threads (the process is not
  // really dying) but skips the drain/flush, abandoning buffered state the
  // way a real crash would.
  if (ingest_) ingest_->stop();
}

ShutdownReport MonitoringStack::shutdown(std::chrono::milliseconds deadline) {
  ShutdownReport report;
  if (shut_down_) return report;
  shut_down_ = true;
  // Drain the relay first, while the upstream can still ack: anything left
  // unacked at the deadline is REPORTED. The client holds that backlog in
  // memory only. The node's own WAL keeps the samples, but a restarted node
  // does not resend them, so the aggregator never gets them.
  if (relay_) {
    relay_->drain_for(static_cast<int>(deadline.count()));
    report.relay_unacked = relay_->pending();
    relay_->stop();
  }
  // Stop serving next: no client observes (or stalls) the drain below.
  if (serve_) serve_->stop();
  // Drain before teardown: everything already submitted reaches the shards —
  // unless a wedged tier can't finish within the deadline, in which case the
  // leftovers are abandoned and REPORTED rather than hanging teardown.
  if (ingest_) {
    report.drained = ingest_->drain_for(deadline);
    if (!report.drained) report.abandoned_batches = ingest_->in_flight();
    ingest_->stop();
  }
  if (wal_) {
    wal_->sync();
    report.dead_letters = wal_->dead_letter_count();
  }
  return report;
}

void MonitoringStack::simulate_crash() {
  crashed_ = true;
  if (wal_) wal_->abandon();
}

std::size_t MonitoringStack::store_batch(const core::SampleBatch& batch,
                                         std::uint64_t wal_ticket) {
  if (ingest_) {
    ingest_->submit(batch, wal_ticket);
    return batch.samples.size();
  }
  return sharded_.append_batch(batch.samples);
}

void MonitoringStack::rollup_tick() {
  if (!rollup_) return;
  rollup_->tick();
  if (serve_) serve_->publish_rollup();
}

void MonitoringStack::apply_degradation(core::DegradationMode mode) {
  if (ingest_) ingest_->set_mode(mode);
  // Widen sampler cadence per the mode's stride — but never on critical
  // samplers: the health battery keeps full cadence through any storm.
  const auto stride =
      degradation_->config().sampler_stride[static_cast<std::size_t>(mode)];
  for (auto* s : supervised_) {
    if (s->priority() == core::Priority::kCritical) continue;
    s->set_stride(stride);
  }
}

void MonitoringStack::run_compaction(core::TimePoint now) {
  if (!compactor_ || !tiers_) return;
  // An injected crash killed the TierStore: durable state is frozen until a
  // fresh stack recovers the directory (the chaos harness's restart).
  if (tiers_->crashed()) return;
  // "Stop compacting, keep serving": the breaker denies passes while the
  // disk is sick; ingest, queries, and the WAL keep running untouched.
  if (!compact_breaker_->allow(now)) return;
  if (compactor_->run_pass(now).is_ok()) {
    compact_breaker_->record_success(now);
    // Everything below the watermark is durable in a tier file; the WAL no
    // longer needs to be able to replay it.
    if (wal_) wal_->truncate_before(tiers_->watermark());
  } else {
    compact_breaker_->record_failure(now);
  }
}

void MonitoringStack::refresh_live_gauges() const {
  if (queue_fill_gauge_ != nullptr && ingest_) {
    std::size_t depth = 0;
    for (std::size_t i = 0; i < sharded_.shard_count(); ++i) {
      depth = std::max(depth, ingest_->queue_depth(i));
    }
    queue_fill_gauge_->set(
        static_cast<double>(depth) /
        static_cast<double>(ingest_->config().queue_capacity));
  }
  if (disk_fill_gauge_ != nullptr && tiers_) {
    disk_fill_gauge_->set(
        static_cast<double>(tiers_->disk_bytes()) /
        static_cast<double>(options_.tier_disk_budget_bytes));
  }
  if (breaker_open_gauge_ != nullptr && !supervised_.empty()) {
    std::size_t open = 0;
    for (const auto* s : supervised_) {
      if (s->breaker_state() == resilience::BreakerState::kOpen) ++open;
    }
    breaker_open_gauge_->set(static_cast<double>(open) /
                             static_cast<double>(supervised_.size()));
  }
}

obs::ObsSnapshot MonitoringStack::obs_snapshot() const {
  refresh_live_gauges();
  return obs_.snapshot();
}

void MonitoringStack::on_log_frame(const transport::Frame& frame) {
  auto events = transport::decode_logs(frame);
  if (!events.is_ok()) return;
  for (const auto& e : events.value()) {
    for (const auto& m : rules_.process(e)) {
      alerts_.raise({m.time,
                     e.severity <= core::Severity::kCritical
                         ? response::AlertSeverity::kCritical
                         : response::AlertSeverity::kWarning,
                     m.rule_name, m.component, m.detail});
    }
    if (novelty_) {
      for (auto& n : novelty_->process(e)) {
        novelty_reports_.push_back(std::move(n));
      }
    }
  }
  logs_.append_batch(std::move(events).take());
}

std::string MonitoringStack::status() const {
  const auto snap = obs_snapshot();
  const auto st = sharded_.stats();
  std::string line = core::strformat(
      "t=%s series=%zu points=%zu logs=%zu jobs=%zu alerts_active=%zu "
      "actions=%zu",
      core::format_time(cluster_.now()).c_str(), st.series, st.points,
      logs_.size(), jobs_.size(), alerts_.active().size(),
      actions_.log().size());
  if (ingest_) {
    line += core::strformat(
        " | shards=%zu policy=%s",
        sharded_.shard_count(),
        std::string(ingest::to_string(ingest_->config().policy)).c_str());
  }
  if (degradation_) {
    line += core::strformat(
        " | mode=%s p=%.2f",
        std::string(core::to_string(degradation_->mode())).c_str(),
        snap.gauge("resilience.degradation.pressure"));
  }
  if (rollup_) {
    const auto fleet = rollup_->snapshot();
    line += core::strformat(
        " | rollup v=%llu levels=%zu",
        static_cast<unsigned long long>(fleet->version()),
        fleet->entry_count());
  }
  if (!supervised_.empty()) {
    std::size_t open = 0;
    std::size_t half = 0;
    for (const auto* s : supervised_) {
      if (s->breaker_state() == resilience::BreakerState::kOpen) ++open;
      if (s->breaker_state() == resilience::BreakerState::kHalfOpen) ++half;
    }
    line += core::strformat(" | breakers closed=%zu open=%zu half=%zu",
                            supervised_.size() - open - half, open, half);
  }
  if (wal_) line += core::strformat(" dlq=%zu", wal_->dead_letter_count());
  // Everything else — ingest/store/wal/supervisor/degradation counters and
  // the per-stage latency histograms — is the exporter's one-line rendering
  // of the same snapshot the control loop reads.
  line += " | " + exporter_.report_line(snap);
  return line;
}

}  // namespace hpcmon::stack
