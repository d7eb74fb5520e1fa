// Health-check suite (LANL, Sec. II.1) and job-gating checks (CSCS, II.5).
//
// LANL runs "a suite of custom tests ... system-wide, on 10 minute intervals
// across all relevant components": configuration checks, service/daemon
// liveness, filesystem mounts, free memory. HealthCheckSuite implements that
// battery; results flow both as samples (health.ok per node, for dashboards)
// and as health-facility log events on failure (for the rule engine).
//
// make_gpu_precheck/make_node_precheck build the NodeCheck closures the
// scheduler's pre/post-job gates consume.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "collect/sampler.hpp"
#include "core/registry.hpp"
#include "sim/cluster.hpp"
#include "sim/scheduler.hpp"

namespace hpcmon::collect {

struct HealthConfig {
  double min_free_mem_gb = 8.0;  // LANL: "appropriate amount of free memory"
  bool check_fs_mounts = true;
  bool check_daemons = true;
  bool check_gpu = true;
};

/// Result of checking one node.
struct HealthResult {
  int node = 0;
  bool ok = true;
  std::vector<std::string> failures;  // human-readable reasons
};

class HealthCheckSuite : public Sampler {
 public:
  HealthCheckSuite(sim::Cluster& cluster, const HealthConfig& config);
  std::string name() const override { return "health"; }

  /// Run the battery over all nodes; emits health.ok samples (1/0) and
  /// failure counts, and queues health log events on the cluster.
  void sample(core::TimePoint sweep_time, core::SampleBatch& out) override;

  /// Check one node immediately (used by gates and dashboards).
  HealthResult check_node(int node) const;

 private:
  sim::Cluster& cluster_;
  HealthConfig config_;
  std::vector<core::SeriesId> ok_;
  core::SeriesId failing_nodes_{0};
};

/// Pre/post-job gate: GPU diagnostic (CSCS). Non-GPU nodes always pass.
sim::Scheduler::NodeCheck make_gpu_precheck(sim::Cluster& cluster);

/// Pre/post-job gate: full node battery (memory, mounts, daemons, GPU).
sim::Scheduler::NodeCheck make_node_precheck(const HealthCheckSuite& suite);

}  // namespace hpcmon::collect
