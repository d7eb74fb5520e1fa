// Property-style relay resume test: a reference run with no faults fixes
// the expected aggregator contents, then the SAME workload is replayed with
// a connection kill scripted at EVERY socket-op index the fault-free run
// used (connect, each send, each ack read), plus seeded random multi-fault
// runs. Whatever the kill point, the aggregator must converge to the
// byte-exact reference — no acknowledged loss, no duplicate application.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
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
  std::atomic<std::uint64_t> applies{0};
  std::unique_ptr<serve::ServeServer> server;

  explicit Upstream(core::SocketFaultInjector* faults) {
    serve::ServeConfig sc;
    sc.socket_faults = faults;
    serve::ServeHooks hooks;
    hooks.relay_apply = [this](const transport::Frame&,
                               const core::SampleBatch& b) {
      ++applies;
      return store.append_batch(b.samples);
    };
    server = std::make_unique<serve::ServeServer>(sc, std::move(hooks));
    EXPECT_TRUE(server->start()) << server->error();
  }
};

constexpr int kBatches = 24;
constexpr int kSeriesCount = 3;
constexpr int kSamplesPerBatch = 4;

/// Run the canonical workload through `plan` and return the resulting
/// upstream store contents as (series, time, value) triples. `converged`
/// reports whether every entry was acked within the deadline.
std::vector<std::vector<core::TimedValue>> run_workload(
    resilience::FaultPlan* plan, bool* converged,
    std::uint64_t* duplicates = nullptr, std::uint64_t* rejected = nullptr) {
  Upstream up(plan);
  RelayConfig rc;
  rc.upstream_port = up.server->port();
  rc.backoff_ms = 1;
  rc.backoff_max_ms = 20;
  rc.ack_timeout_ms = 400;
  rc.socket_faults = plan;
  RelayClient client(rc);
  EXPECT_TRUE(client.start());
  for (int b = 0; b < kBatches; ++b) {
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
  }
  *converged = client.drain_for(30000);
  client.stop();
  if (duplicates != nullptr) {
    *duplicates = up.server->stats().relay_duplicates;
  }
  if (rejected != nullptr) *rejected = client.stats().rejected_batches;
  std::vector<std::vector<core::TimedValue>> contents;
  for (int s = 0; s < kSeriesCount; ++s) {
    contents.push_back(up.store.query_range(
        core::SeriesId{static_cast<std::uint32_t>(s)},
        {0, kBatches * 100 + core::kHour}));
  }
  return contents;
}

TEST(RelayResumeTest, EveryKillPointConvergesToTheFaultFreeReference) {
  // Reference run: a zero-fault plan both counts the socket ops the
  // workload needs and fixes the expected store contents.
  resilience::FaultPlan reference_plan(1);
  bool converged = false;
  const auto reference = run_workload(&reference_plan, &converged);
  ASSERT_TRUE(converged);
  const std::uint64_t fault_free_ops = reference_plan.socket_ops();
  ASSERT_GT(fault_free_ops, static_cast<std::uint64_t>(kBatches));
  ASSERT_EQ(reference.size(), static_cast<std::size_t>(kSeriesCount));
  ASSERT_EQ(reference[0].size(),
            static_cast<std::size_t>(kBatches * kSamplesPerBatch));

  // Kill the connection at every op index the fault-free run used — every
  // connect, every append send, every ack read, client side and server
  // side (both draw from the same monotone op stream).
  for (std::uint64_t kill = 1; kill <= fault_free_ops; ++kill) {
    resilience::FaultSpec spec;
    spec.sock_reset_at = kill;
    resilience::FaultPlan plan(1);
    plan.set_spec(spec);
    bool ok = false;
    std::uint64_t rejected = 0;
    const auto contents = run_workload(&plan, &ok, nullptr, &rejected);
    EXPECT_TRUE(ok) << "kill at op " << kill << " never converged";
    EXPECT_EQ(rejected, 0u) << "kill at op " << kill;
    EXPECT_EQ(contents, reference)
        << "kill at op " << kill << " diverged from the reference";
  }
}

TEST(RelayResumeTest, SeededRandomFaultStormsConvergeWithoutLossOrDoubles) {
  resilience::FaultPlan reference_plan(1);
  bool converged = false;
  const auto reference = run_workload(&reference_plan, &converged);
  ASSERT_TRUE(converged);

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    resilience::FaultSpec spec;
    spec.sock_reset_p = 0.03;
    spec.sock_stall_p = 0.02;
    spec.sock_short_write_p = 0.10;
    spec.sock_short_read_p = 0.10;
    spec.sock_torn_frame_p = 0.02;
    resilience::FaultPlan plan(seed * 7919);
    plan.set_spec(spec);
    bool ok = false;
    std::uint64_t duplicates = 0;
    std::uint64_t rejected = 0;
    const auto contents = run_workload(&plan, &ok, &duplicates, &rejected);
    EXPECT_TRUE(ok) << "seed " << seed << " never converged";
    EXPECT_EQ(rejected, 0u) << "seed " << seed;
    EXPECT_EQ(contents, reference)
        << "seed " << seed << " diverged (duplicates acked-without-reapply: "
        << duplicates << ")";
  }
}

}  // namespace
}  // namespace hpcmon::relay
