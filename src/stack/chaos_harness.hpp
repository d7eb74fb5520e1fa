// Chaos harness: run a full MonitoringStack through a seeded storm scenario
// and check the storm-mode survival invariants.
//
// resilience::ChaosSchedule scripts WHAT the storm is; this harness supplies
// the stack it lands on: a small deterministic cluster, a chaos-wired stack
// (fault plan through samplers/WAL/delivery, degradation controller on,
// drop-oldest ingest), a critical-class heartbeat series published every
// tick, and bulk-class floods when a phase calls for them. After the storm
// plus a recovery window, the report answers the only questions that matter
// in a real incident (Secs. III-IV of the paper):
//   * did the stack survive (no crash, no wedged teardown)?
//   * is the critical heartbeat byte-complete end to end (zero critical
//     samples dropped anywhere)?
//   * did bounded queues stay bounded (DLQ within cap, ingest drained)?
//   * did the controller ride the ladder up and come back to NORMAL?
// It lives in stack/ (not resilience/) because it builds a MonitoringStack;
// the dependency only points this way.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/priority.hpp"
#include "resilience/chaos.hpp"

namespace hpcmon::stack {

struct ChaosReport {
  std::string scenario;
  bool survived = false;  // constructed, ran, and tore down without wedging
  // Critical-path byte-completeness.
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t heartbeats_stored = 0;
  std::uint64_t critical_lost = 0;  // ingest dropped+rejected, critical class
  // The crash drill's WAL writer lag: records, and heartbeats among them,
  // posted but not yet decided when the stack died (lost with it). Zero
  // when the drill syncs the WAL first.
  std::uint64_t crash_undecided_records = 0;
  std::uint64_t crash_undecided_heartbeats = 0;
  // Shedding ledger.
  std::uint64_t bulk_shed = 0;
  std::uint64_t standard_shed = 0;
  std::uint64_t involuntary_lost = 0;  // all classes, dropped+rejected
  // Controller trajectory.
  int max_mode = 0;  // worst DegradationMode reached (0..3)
  std::uint64_t transitions = 0;
  bool returned_to_normal = false;
  // Bounded-memory checks.
  std::size_t dead_letters = 0;
  std::size_t dead_letter_cap = 0;
  bool shutdown_clean = false;
  /// First violated invariant (empty when all held).
  std::string failure;

  bool ok() const { return survived && failure.empty(); }
  std::string to_string() const;
};

/// Run `scenario` end to end. `overrides` (key, value) pairs are applied on
/// top of the harness base config (small cluster, 2 ingest shards,
/// drop_oldest, WAL + DLQ, watchdog + breaker, degradation on) after the
/// scenario's own config_overrides — tests use them to pin policies.
ChaosReport run_chaos(
    const resilience::ChaosScenario& scenario,
    const std::vector<std::pair<std::string, std::string>>& overrides = {});

/// Verdict of the two-stack relay storm (run_network_storm): a node stack
/// forwarding through hpcmon::relay to an aggregator stack's serve tier,
/// with every socket fault class injected on BOTH sides of the wire.
struct NetworkStormReport {
  std::string scenario;
  bool survived = false;
  // Critical byte-exactness across the wire: every heartbeat the node
  // stored must ALSO be on the aggregator, same timestamps, same values.
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t node_heartbeats = 0;      // stored node-side
  std::uint64_t upstream_heartbeats = 0;  // stored aggregator-side
  bool critical_byte_exact = false;
  // Relay ledger (client side).
  std::uint64_t acked_batches = 0;
  std::uint64_t resent_batches = 0;
  std::uint64_t rejected_batches = 0;  // poison-pill drops (must stay 0)
  std::uint64_t shed_batches = 0;      // voluntary, never critical
  std::uint64_t connects = 0;
  std::uint64_t disconnects = 0;
  std::uint64_t relay_unacked = 0;  // left unacked at shutdown (must be 0)
  // Server-side dedupe ledger.
  std::uint64_t duplicates = 0;       // acked-without-reapply resends
  std::uint64_t window_rejects = 0;   // beyond-window refusals (resent)
  // Fault pressure actually exercised (the storm must not be a no-op).
  std::uint64_t socket_faults = 0;
  bool all_fault_classes = false;  // reset+stall+short write/read+torn frame
  /// First violated invariant (empty when all held).
  std::string failure;

  bool ok() const { return survived && failure.empty(); }
  std::string to_string() const;
};

/// Run the node→aggregator relay storm end to end: two MonitoringStacks on
/// one FaultPlan (one monotone socket-op stream spanning client and server
/// I/O), the scenario's phases driving resets, stalls, fragmentation, and
/// torn frames concurrently with a bulk ingest flood; then a recovery
/// window, a drained shutdown, and the zero-acked-loss / byte-exact-critical
/// verdict. `overrides` apply to the NODE stack's config after the
/// scenario's own config_overrides.
NetworkStormReport run_network_storm(
    const resilience::ChaosScenario& scenario,
    const std::vector<std::pair<std::string, std::string>>& overrides = {});

}  // namespace hpcmon::stack
