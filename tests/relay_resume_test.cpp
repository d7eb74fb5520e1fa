// Property-style relay resume test: a reference run with no faults fixes
// the expected aggregator contents, then the SAME workload is replayed with
// a connection kill scripted at EVERY socket-op index the fault-free run
// used (connect, each send, each ack read), plus seeded random multi-fault
// runs. The kill sweep runs the workload twice: paced, one batch in flight
// at a time, so every batch has its own kill points; and as one burst, so
// kills also land while a window of appends is in flight. Whatever the kill
// point, the aggregator must converge to the byte-exact reference — no
// acknowledged loss, no duplicate application — and apply the batches in
// seq order. A last run queues more than a send window before the first
// connect; the server refuses any append that is not next in order, so it
// must see none.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <vector>

#include "core/rng.hpp"
#include "relay/client.hpp"
#include "resilience/fault.hpp"
#include "serve/server.hpp"
#include "store/tsdb.hpp"

namespace hpcmon::relay {
namespace {

struct Upstream {
  store::TimeSeriesStore store;
  std::mutex mu;
  std::vector<core::TimePoint> applied_sweeps;  // apply order
  std::unique_ptr<serve::ServeServer> server;

  explicit Upstream(core::SocketFaultInjector* faults) {
    serve::ServeConfig sc;
    sc.socket_faults = faults;
    serve::ServeHooks hooks;
    hooks.relay_apply = [this](const transport::Frame&,
                               const core::SampleBatch& b) {
      {
        std::lock_guard<std::mutex> lock(mu);
        applied_sweeps.push_back(b.sweep_time);
      }
      return store.append_batch(b.samples);
    };
    server = std::make_unique<serve::ServeServer>(sc, std::move(hooks));
    EXPECT_TRUE(server->start()) << server->error();
  }
};

constexpr int kBatches = 24;
constexpr int kSeriesCount = 3;
constexpr int kSamplesPerBatch = 4;

struct Workload {
  int batches = kBatches;
  /// Submit everything before the worker starts, so the first connect
  /// sends a full window at once.
  bool queue_before_start = false;
  /// Submit each batch only after the previous one is acked, so every batch
  /// costs its own append send and ack read instead of sharing them with
  /// the rest of a window.
  bool paced = false;
};

struct Outcome {
  bool converged = false;  // every entry acked within the deadline
  bool in_order = true;    // applied sweep times strictly increase
  std::uint64_t duplicates = 0;
  std::uint64_t window_rejects = 0;
  std::uint64_t rejected = 0;
  /// Socket ops (client and server) counted once the last batch was acked.
  std::uint64_t ops_at_drain = 0;
  /// Upstream store contents per series.
  std::vector<std::vector<core::TimedValue>> contents;
};

/// Run the canonical workload through `plan`.
Outcome run_workload(resilience::FaultPlan* plan, const Workload& w = {}) {
  Upstream up(plan);
  RelayConfig rc;
  rc.upstream_port = up.server->port();
  rc.backoff_ms = 1;
  rc.backoff_max_ms = 20;
  rc.ack_timeout_ms = 400;
  rc.queue_cap = static_cast<std::size_t>(w.batches) + 8;
  rc.socket_faults = plan;
  RelayClient client(rc);
  if (!w.queue_before_start) {
    EXPECT_TRUE(client.start());
  }
  Outcome out;
  out.converged = true;
  for (int b = 0; b < w.batches; ++b) {
    core::SampleBatch batch;
    batch.sweep_time = b * 100;
    for (int s = 0; s < kSeriesCount; ++s) {
      for (int i = 0; i < kSamplesPerBatch; ++i) {
        batch.samples.push_back({core::SeriesId{static_cast<std::uint32_t>(s)},
                                 b * 100 + i * 10,
                                 static_cast<double>(b * 1000 + s * 100 + i)});
      }
    }
    client.submit(batch);
    if (w.paced && out.converged) out.converged = client.drain_for(30000);
  }
  if (w.queue_before_start) {
    EXPECT_TRUE(client.start());
  }
  out.converged = out.converged && client.drain_for(30000);
  out.ops_at_drain = plan->socket_ops();
  client.stop();
  const auto stats = up.server->stats();
  out.duplicates = stats.relay_duplicates;
  out.window_rejects = stats.relay_window_rejects;
  out.rejected = client.stats().rejected_batches;
  {
    std::lock_guard<std::mutex> lock(up.mu);
    for (std::size_t i = 1; i < up.applied_sweeps.size(); ++i) {
      out.in_order = out.in_order &&
                     up.applied_sweeps[i] > up.applied_sweeps[i - 1];
    }
  }
  for (int s = 0; s < kSeriesCount; ++s) {
    out.contents.push_back(up.store.query_range(
        core::SeriesId{static_cast<std::uint32_t>(s)},
        {0, w.batches * 100 + core::kHour}));
  }
  return out;
}

/// Socket ops every run makes for `exchanges` request/reply exchanges: the
/// connect, then per exchange the send, the server's read, its reply and the
/// client's read of it. (The server's trailing empty read is not counted: it
/// merges with the next frame's read when the server thread is preempted.)
constexpr std::uint64_t ops_every_run_makes(std::uint64_t exchanges) {
  return 1 + 4 * exchanges;
}

/// Kill the connection at every op index up to the reference's op count —
/// every connect, every append send, every ack read, client side and server
/// side (both draw from the same monotone op stream) — and check each run
/// against the reference. Every run of `w` makes at least `must_fire` ops,
/// so each kill at or below it must fire.
void kill_sweep(const Workload& w, const Outcome& reference,
                std::uint64_t must_fire, const char* label) {
  ASSERT_GE(reference.ops_at_drain, must_fire);
  for (std::uint64_t kill = 1; kill <= reference.ops_at_drain; ++kill) {
    resilience::FaultSpec spec;
    spec.sock_reset_at = kill;
    resilience::FaultPlan plan(1);
    plan.set_spec(spec);
    const auto run = run_workload(&plan, w);
    if (kill <= must_fire) {
      EXPECT_GT(plan.injected().sock_resets, 0u)
          << label << " kill at op " << kill << " never fired";
    }
    EXPECT_TRUE(run.converged)
        << label << " kill at op " << kill << " never converged";
    EXPECT_TRUE(run.in_order) << label << " kill at op " << kill
                              << " applied a batch out of seq order";
    EXPECT_EQ(run.rejected, 0u) << label << " kill at op " << kill;
    EXPECT_EQ(run.contents, reference.contents)
        << label << " kill at op " << kill << " diverged from the reference";
  }
}

TEST(RelayResumeTest, EveryKillPointConvergesToTheFaultFreeReference) {
  // Reference runs: a zero-fault plan both counts the socket ops the
  // workload needs and fixes the expected store contents.
  Workload paced;
  paced.paced = true;
  resilience::FaultPlan paced_plan(1);
  const auto reference = run_workload(&paced_plan, paced);
  ASSERT_TRUE(reference.converged);
  ASSERT_TRUE(reference.in_order);
  ASSERT_EQ(reference.contents.size(), static_cast<std::size_t>(kSeriesCount));
  ASSERT_EQ(reference.contents[0].size(),
            static_cast<std::size_t>(kBatches * kSamplesPerBatch));
  // Paced, the hello and every batch are exchanges of their own, so kills
  // land before, during and after each batch's append.
  kill_sweep(paced, reference, ops_every_run_makes(1 + kBatches), "paced");

  // As one burst the window shares sends and ack reads between batches, so
  // kills also land while appends are in flight. A run's op count then
  // varies with timing; every run still exchanges the hello and at least one
  // window.
  resilience::FaultPlan burst_plan(1);
  const auto burst = run_workload(&burst_plan);
  ASSERT_TRUE(burst.converged);
  ASSERT_TRUE(burst.in_order);
  ASSERT_EQ(burst.contents, reference.contents);
  kill_sweep({}, burst, ops_every_run_makes(2), "burst");
}

TEST(RelayResumeTest, SeededRandomFaultStormsConvergeWithoutLossOrDoubles) {
  resilience::FaultPlan reference_plan(1);
  const auto reference = run_workload(&reference_plan);
  ASSERT_TRUE(reference.converged);

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    resilience::FaultSpec spec;
    spec.sock_reset_p = 0.03;
    spec.sock_stall_p = 0.02;
    spec.sock_short_write_p = 0.10;
    spec.sock_short_read_p = 0.10;
    spec.sock_torn_frame_p = 0.02;
    resilience::FaultPlan plan(seed * 7919);
    plan.set_spec(spec);
    const auto run = run_workload(&plan);
    EXPECT_TRUE(run.converged) << "seed " << seed << " never converged";
    EXPECT_TRUE(run.in_order)
        << "seed " << seed << " applied a batch out of seq order";
    EXPECT_EQ(run.rejected, 0u) << "seed " << seed;
    EXPECT_EQ(run.contents, reference.contents)
        << "seed " << seed << " diverged (duplicates acked-without-reapply: "
        << run.duplicates << ")";
  }
}

TEST(RelayResumeTest, AFullFirstWindowArrivesInSeqOrder) {
  // More batches than the window, all queued before the first connect, so
  // it sends a full window at once. The server refuses any append that is
  // not the next in seq order, so zero refusals proves it saw every append
  // in order.
  Workload w;
  w.batches = static_cast<int>(RelayClient::kSendWindow) + 40;
  w.queue_before_start = true;
  resilience::FaultPlan plan(1);
  const auto run = run_workload(&plan, w);
  EXPECT_TRUE(run.converged);
  EXPECT_TRUE(run.in_order);
  EXPECT_EQ(run.window_rejects, 0u);
  EXPECT_EQ(run.rejected, 0u);
  EXPECT_EQ(run.duplicates, 0u);
  // Every sample of every batch, as run_workload built it.
  for (int s = 0; s < kSeriesCount; ++s) {
    std::vector<core::TimedValue> want;
    for (int b = 0; b < w.batches; ++b) {
      for (int i = 0; i < kSamplesPerBatch; ++i) {
        want.push_back({b * 100 + i * 10,
                        static_cast<double>(b * 1000 + s * 100 + i)});
      }
    }
    EXPECT_EQ(run.contents[static_cast<std::size_t>(s)], want) << s;
  }
}

}  // namespace
}  // namespace hpcmon::relay
