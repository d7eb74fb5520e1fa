// Ablation: relay resilience — goodput and recovery latency vs socket
// fault rate.
//
// The relay tier's claim (DESIGN.md "Relay tier") is that at-least-once
// delivery with exactly-once apply costs little when the network is clean
// and degrades gracefully — not catastrophically, and never by losing
// acknowledged data — when it is not. This bench measures that claim:
//
//   1. Goodput sweep: the same fixed workload (240 batches x 256 samples)
//      is relayed to an upstream ServeServer under increasing composed
//      socket-fault rates (short writes/reads, stalls, resets, torn
//      frames on ONE monotone op stream spanning both peers). Reported
//      per level: acked samples/s, resends, reconnects — plus the
//      hardware-relative retention ratios (faulted goodput / clean
//      goodput, `*_x`) that the CI regression gate tracks.
//   2. Recovery latency: from a scripted connection reset to the next
//      acknowledged append, sampled over repeated kills in steady state
//      (backoff floor 1 ms, so the number tracks the relay's reconnect
//      machinery rather than a configured sleep).
//
// Shape checks encode the contract, not absolute speed: every level
// converges with zero acknowledged loss and zero rejected batches, the
// upstream store is sample-exact vs the submitted workload, retention
// under the severe profile stays above a floor, and median recovery is
// bounded.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/sample.hpp"
#include "relay/client.hpp"
#include "resilience/fault.hpp"
#include "serve/server.hpp"
#include "store/tsdb.hpp"

namespace hpcmon::bench {
namespace {

constexpr int kBatches = 240;
constexpr int kSeriesCount = 8;
constexpr int kSamplesPerSeries = 32;  // 256 samples per batch
constexpr std::size_t kSamplesPerBatch =
    static_cast<std::size_t>(kSeriesCount) * kSamplesPerSeries;

struct Upstream {
  store::TimeSeriesStore store;
  std::unique_ptr<serve::ServeServer> server;

  explicit Upstream(core::SocketFaultInjector* faults) {
    serve::ServeConfig sc;
    sc.socket_faults = faults;
    serve::ServeHooks hooks;
    hooks.relay_apply = [this](const transport::Frame&,
                               const core::SampleBatch& b) {
      return store.append_batch(b.samples);
    };
    server = std::make_unique<serve::ServeServer>(sc, std::move(hooks));
  }

  std::size_t stored_samples() {
    std::size_t total = 0;
    for (int s = 0; s < kSeriesCount; ++s) {
      total += store
                   .query_range(core::SeriesId{static_cast<std::uint32_t>(s)},
                                {0, kBatches * 1000 + core::kHour})
                   .size();
    }
    return total;
  }
};

core::SampleBatch make_batch(int b) {
  core::SampleBatch batch;
  batch.sweep_time = b * 1000;
  for (int s = 0; s < kSeriesCount; ++s) {
    for (int i = 0; i < kSamplesPerSeries; ++i) {
      batch.samples.push_back({core::SeriesId{static_cast<std::uint32_t>(s)},
                               b * 1000 + i * 10,
                               static_cast<double>(b) + s * 0.1 + i * 0.001});
    }
  }
  return batch;
}

struct FaultLevel {
  const char* name;
  resilience::FaultSpec spec;
};

std::vector<FaultLevel> fault_levels() {
  std::vector<FaultLevel> levels;
  levels.push_back({"clean", {}});
  resilience::FaultSpec light;
  light.sock_short_write_p = 0.02;
  light.sock_short_read_p = 0.02;
  light.sock_stall_p = 0.002;
  levels.push_back({"light", light});
  resilience::FaultSpec moderate;
  moderate.sock_short_write_p = 0.05;
  moderate.sock_short_read_p = 0.05;
  moderate.sock_stall_p = 0.005;
  moderate.sock_reset_p = 0.005;
  moderate.sock_torn_frame_p = 0.002;
  levels.push_back({"moderate", moderate});
  resilience::FaultSpec severe;
  severe.sock_short_write_p = 0.10;
  severe.sock_short_read_p = 0.10;
  severe.sock_stall_p = 0.01;
  severe.sock_reset_p = 0.01;
  severe.sock_torn_frame_p = 0.005;
  levels.push_back({"severe", severe});
  return levels;
}

struct SweepResult {
  bool converged = false;
  double goodput_sps = 0;
  relay::RelayStats stats;
  std::size_t stored = 0;
};

SweepResult run_level(const FaultLevel& level) {
  resilience::FaultPlan plan(0xBE7A0000u);
  plan.set_spec(level.spec);
  Upstream up(&plan);
  if (!up.server->start()) {
    std::printf("upstream failed to start: %s\n", up.server->error().c_str());
    return {};
  }
  relay::RelayConfig rc;
  rc.upstream_port = up.server->port();
  rc.batch_samples = kSamplesPerBatch;
  rc.queue_cap = kBatches + 8;  // whole workload fits; nothing is shed
  rc.backoff_ms = 1;
  rc.backoff_max_ms = 20;
  rc.ack_timeout_ms = 400;
  rc.socket_faults = &plan;
  relay::RelayClient client(rc);
  SweepResult r;
  if (!client.start()) return r;
  const auto t0 = std::chrono::steady_clock::now();
  for (int b = 0; b < kBatches; ++b) client.submit(make_batch(b));
  r.converged = client.drain_for(60000);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  client.stop();
  r.stats = client.stats();
  r.goodput_sps =
      secs > 0 ? static_cast<double>(r.stats.acked_samples) / secs : 0;
  r.stored = up.stored_samples();
  return r;
}

void goodput_sweep() {
  std::printf("\n-- Goodput vs composed socket-fault rate --\n");
  std::printf("%-10s %14s %9s %9s %9s %8s %10s\n", "level", "goodput(sps)",
              "resent", "connects", "timeouts", "stored", "converged");
  double clean_goodput = 0;
  std::vector<std::pair<std::string, double>> retention;
  for (const auto& level : fault_levels()) {
    const auto r = run_level(level);
    std::printf("%-10s %14.0f %9llu %9llu %9llu %8zu %10s\n", level.name,
                r.goodput_sps,
                static_cast<unsigned long long>(r.stats.resent_batches),
                static_cast<unsigned long long>(r.stats.connects),
                static_cast<unsigned long long>(r.stats.ack_timeouts),
                r.stored, r.converged ? "yes" : "NO");
    const std::string tag = level.name;
    json_metric("relay.goodput_sps_" + tag, r.goodput_sps);
    json_metric("relay.resent_batches_" + tag,
                static_cast<double>(r.stats.resent_batches));
    json_metric("relay.connects_" + tag,
                static_cast<double>(r.stats.connects));
    shape_check(r.converged, tag + ": every batch acked within the deadline");
    shape_check(r.stored == kBatches * kSamplesPerBatch,
                tag + ": upstream store is sample-exact (" +
                    std::to_string(r.stored) + " of " +
                    std::to_string(kBatches * kSamplesPerBatch) + ")");
    shape_check(r.stats.rejected_batches == 0,
                tag + ": zero rejected batches");
    shape_check(r.stats.shed_batches == 0, tag + ": zero shed batches");
    if (tag == "clean") {
      clean_goodput = r.goodput_sps;
      shape_check(r.stats.resent_batches == 0,
                  "clean: no resends on a fault-free wire");
    } else if (clean_goodput > 0) {
      retention.emplace_back(tag, r.goodput_sps / clean_goodput);
    }
  }
  std::printf("\n-- Goodput retention (faulted / clean, gated ratios) --\n");
  for (const auto& [tag, ratio] : retention) {
    std::printf("  %-10s %.3fx\n", tag.c_str(), ratio);
    json_metric("relay.goodput_retention_" + tag + "_x", ratio);
  }
  if (!retention.empty()) {
    shape_check(retention.back().second > 0.05,
                "severe: goodput degrades gracefully (>5% retained), not to "
                "zero");
  }
}

void recovery_latency() {
  std::printf("\n-- Recovery latency: scripted reset -> next acked append --\n");
  resilience::FaultPlan plan(0xBE7A0001u);
  Upstream up(&plan);
  if (!up.server->start()) {
    shape_check(false, "recovery upstream started");
    return;
  }
  relay::RelayConfig rc;
  rc.upstream_port = up.server->port();
  rc.backoff_ms = 1;
  rc.backoff_max_ms = 20;
  rc.ack_timeout_ms = 400;
  rc.socket_faults = &plan;
  relay::RelayClient client(rc);
  if (!client.start()) {
    shape_check(false, "recovery client started");
    return;
  }
  // Reach steady state first so each trial measures reconnect machinery,
  // not first-connect setup.
  client.submit(make_batch(0));
  const bool warm = client.drain_for(5000);
  shape_check(warm, "recovery: steady state reached before the kill loop");

  constexpr int kTrials = 24;
  std::vector<double> recovery_ms;
  bool all_converged = true;
  for (int t = 0; t < kTrials; ++t) {
    // Script a reset on the very next socket op (the append send below),
    // then time fault -> reconnect -> hello -> resend -> ack.
    resilience::FaultSpec spec;
    spec.sock_reset_at = plan.socket_ops() + 1;
    plan.set_spec(spec);
    const auto t0 = std::chrono::steady_clock::now();
    client.submit(make_batch(t + 1));
    const bool ok = client.drain_for(5000);
    all_converged = all_converged && ok;
    recovery_ms.push_back(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count());
    plan.set_spec({});
  }
  std::sort(recovery_ms.begin(), recovery_ms.end());
  const double p50 = recovery_ms[recovery_ms.size() / 2];
  const double worst = recovery_ms.back();
  std::printf("  trials=%d  p50=%.2f ms  max=%.2f ms\n", kTrials, p50, worst);
  json_metric("relay.recovery_p50_ms", p50);
  json_metric("relay.recovery_max_ms", worst);
  shape_check(all_converged, "recovery: every kill trial re-acked");
  shape_check(p50 < 500.0, "recovery: median reset->re-ack under 500 ms");
  shape_check(client.stats().rejected_batches == 0,
              "recovery: zero rejected batches across all kills");
  const auto reconnects = client.stats().connects;
  client.stop();
  shape_check(reconnects >= static_cast<std::uint64_t>(kTrials),
              "recovery: every scripted reset actually forced a reconnect");
  shape_check(up.stored_samples() ==
                  static_cast<std::size_t>(kTrials + 1) * kSamplesPerBatch,
              "recovery: upstream store is sample-exact after all kills");
}

}  // namespace
}  // namespace hpcmon::bench

int main(int argc, char** argv) {
  using namespace hpcmon::bench;
  json_init(argc, argv);
  header("Ablation: relay resilience — goodput & recovery vs fault rate",
         "Secs. III-IV (transport resilience); DESIGN.md \"Relay tier\"");
  std::printf("workload: %d batches x %zu samples, up to %zu appends in "
              "flight, composed faults on one monotone socket-op stream\n",
              kBatches, kSamplesPerBatch,
              hpcmon::relay::RelayClient::kSendWindow);
  goodput_sweep();
  recovery_latency();
  return finish();
}
