#include "collect/health.hpp"

#include "core/strings.hpp"

namespace hpcmon::collect {

using core::SampleBatch;
using core::TimePoint;

HealthCheckSuite::HealthCheckSuite(sim::Cluster& cluster,
                                   const HealthConfig& config)
    : cluster_(cluster), config_(config) {
  auto& reg = cluster.registry();
  const auto& topo = cluster.topology();
  const auto m_ok = reg.register_metric(
      {"health.ok", "bool", "1 when the node passes the full check battery",
       false});
  for (int i = 0; i < topo.num_nodes(); ++i) {
    ok_.push_back(reg.series(m_ok, topo.node(i)));
  }
  failing_nodes_ = reg.series(
      reg.register_metric({"health.failing_nodes", "nodes",
                           "count of nodes failing any health check", false}),
      topo.system());
}

HealthResult HealthCheckSuite::check_node(int node) const {
  HealthResult r;
  r.node = node;
  const auto& ns = cluster_.node_state(node);
  const double free_gb =
      const_cast<sim::Cluster&>(cluster_).node_mem_free_gb(node);
  if (free_gb < config_.min_free_mem_gb) {
    r.ok = false;
    r.failures.push_back(
        core::strformat("free memory %.1f GiB below %.1f GiB", free_gb,
                        config_.min_free_mem_gb));
  }
  if (config_.check_fs_mounts && !ns.fs_mounted) {
    r.ok = false;
    r.failures.push_back("shared filesystem not mounted");
  }
  if (config_.check_daemons && !ns.daemons_ok) {
    r.ok = false;
    r.failures.push_back("essential daemon not running");
  }
  if (ns.hung) {
    r.ok = false;
    r.failures.push_back("node unresponsive");
  }
  if (config_.check_gpu &&
      cluster_.topology().node_has_gpu(node) &&
      cluster_.gpus().health(node) == sim::GpuHealth::kFailed) {
    r.ok = false;
    r.failures.push_back("GPU failed");
  }
  return r;
}

void HealthCheckSuite::sample(TimePoint t, SampleBatch& out) {
  const auto& topo = cluster_.topology();
  int failing = 0;
  for (int i = 0; i < topo.num_nodes(); ++i) {
    const auto r = check_node(i);
    out.samples.push_back({ok_[i], t, r.ok ? 1.0 : 0.0});
    if (!r.ok) {
      ++failing;
      for (const auto& reason : r.failures) {
        // Route failures through the cluster's log stream so they are
        // collected, stored, and correlated like any other event.
        cluster_.emit_log({t, t, topo.node(i), core::LogFacility::kHealth,
                           core::Severity::kWarning, core::kNoJob,
                           "health check failed: " + reason});
      }
    }
  }
  out.samples.push_back({failing_nodes_, t, static_cast<double>(failing)});
}

sim::Scheduler::NodeCheck make_gpu_precheck(sim::Cluster& cluster) {
  return [&cluster](int node) { return cluster.gpus().run_diagnostic(node); };
}

sim::Scheduler::NodeCheck make_node_precheck(const HealthCheckSuite& suite) {
  return [&suite](int node) { return suite.check_node(node).ok; };
}

}  // namespace hpcmon::collect
