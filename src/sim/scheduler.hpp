// Batch scheduler: FCFS queue with simple backfill, pluggable placement
// policies, and health-gate hooks.
//
// Three paper threads meet here:
//  * Fig 1 / [2]: Topologically-Aware Scheduling — the kTopoAware policy
//    packs jobs onto contiguous router neighbourhoods, reducing path overlap
//    and hence congestion, which raises delivered injection bandwidth.
//  * NERSC/CSC (Sec. II.3/II.4): queue backlog is a monitored signal; the
//    scheduler exposes queue depth and emits scheduler log events.
//  * CSCS (Sec. II.5): optional pre/post-job node health checks; a node
//    failing its pre-check is replaced and quarantined so "a problem should
//    only be encountered by at most one batch job".
#pragma once

#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "core/ids.hpp"
#include "core/log_event.hpp"
#include "core/rng.hpp"
#include "sim/apps.hpp"
#include "sim/fabric.hpp"
#include "sim/filesystem.hpp"
#include "sim/node.hpp"
#include "sim/topology.hpp"

namespace hpcmon::sim {

enum class PlacementPolicy : std::uint8_t { kFirstFit, kRandom, kTopoAware };

enum class JobState : std::uint8_t { kQueued, kRunning, kCompleted, kFailed };

struct JobRequest {
  int num_nodes = 1;
  core::Duration nominal_runtime = 10 * core::kMinute;
  AppProfile profile;
  bool needs_gpu = false;
};

struct JobRecord {
  core::JobId id = core::kNoJob;
  JobRequest request;
  core::TimePoint submit_time = 0;
  core::TimePoint start_time = -1;
  core::TimePoint end_time = -1;
  std::vector<int> nodes;           // node indices while running/after
  double progress = 0.0;            // 0..1 of nominal work
  JobState state = JobState::kQueued;
  /// Set if a node-problem probe fired on any of this job's nodes while it
  /// ran (used to evaluate the health-gate policy).
  bool saw_problem = false;
  /// Time-integral of HSN path stall experienced (congestion exposure).
  double stall_integral = 0.0;

  core::Duration actual_runtime() const {
    return (start_time >= 0 && end_time >= 0) ? end_time - start_time : -1;
  }
};

class Scheduler {
 public:
  Scheduler(const Topology& topo, Fabric& fabric, FsModel& fs,
            PlacementPolicy policy, core::Rng rng);

  core::JobId submit(core::TimePoint now, JobRequest request);

  /// Phase A of a tick: project running jobs' demand onto node states, the
  /// fabric, and the filesystem (call before Fabric::tick / FsModel::tick).
  void apply_loads(core::TimePoint now, std::vector<NodeState>& nodes);

  /// Phase B: read congestion/latency results, advance job progress,
  /// complete/fail jobs, then start queued jobs onto free nodes.
  void advance(core::TimePoint now, core::Duration dt,
               std::vector<NodeState>& nodes,
               std::vector<core::LogEvent>& log_out);

  int queue_depth() const { return static_cast<int>(queue_.size()); }
  int running_count() const { return static_cast<int>(running_.size()); }
  const JobRecord* job(core::JobId id) const;
  std::vector<core::JobId> running_jobs() const { return running_; }
  const std::vector<core::JobId>& completed_jobs() const { return completed_; }
  /// Job currently occupying a node, or kNoJob.
  core::JobId job_on_node(int node) const { return node_owner_.at(node); }

  void set_policy(PlacementPolicy p) { policy_ = p; }
  PlacementPolicy policy() const { return policy_; }

  /// Remove/restore a node from service (response-path action). Affects
  /// future placement only; running jobs keep their nodes.
  void set_node_available(int node, bool available) {
    node_unavailable_.at(node) = !available;
  }
  bool node_available(int node) const { return !node_unavailable_.at(node); }

  /// Kill a running job (state -> kFailed, nodes released). Optionally
  /// requeue a fresh copy of the request at the back of the queue — the
  /// "drain and restart" response to a wedged node. Returns false if the
  /// job is not running.
  bool fail_job(core::TimePoint now, core::JobId id, bool requeue,
                std::vector<core::LogEvent>& log_out);

  /// CSCS-style gates. Pre-check runs per node before a job starts: nodes
  /// that fail are quarantined (marked unavailable) and replaced. Post-check
  /// runs per node after a job ends: failures quarantine the node.
  using NodeCheck = std::function<bool(int node)>;
  void set_pre_job_check(NodeCheck check) { pre_check_ = std::move(check); }
  void set_post_job_check(NodeCheck check) { post_check_ = std::move(check); }

  /// Probe evaluated on every running job's nodes each tick; a true result
  /// marks the job's saw_problem flag (ground truth for gate evaluation).
  void set_node_problem_probe(NodeCheck probe) { problem_probe_ = std::move(probe); }

  /// Lifetime callbacks (job-log forwarding, JobStore population).
  using JobCallback = std::function<void(const JobRecord&)>;
  void set_on_start(JobCallback cb) { on_start_ = std::move(cb); }
  void set_on_end(JobCallback cb) { on_end_ = std::move(cb); }

  /// Mean spread (max - min node index) of placements made so far; a compact
  /// placement metric used by topology-aware scheduling tests.
  double mean_placement_span() const;

 private:
  std::vector<int> free_nodes(bool needs_gpu) const;
  bool try_start(core::TimePoint now, core::JobId id,
                 std::vector<core::LogEvent>& log_out);
  std::vector<int> place(const std::vector<int>& free, int count);
  void finish(core::TimePoint now, JobRecord& rec, JobState final_state,
              std::vector<core::LogEvent>& log_out);

  const Topology& topo_;
  Fabric& fabric_;
  FsModel& fs_;
  PlacementPolicy policy_;
  core::Rng rng_;

  std::unordered_map<core::JobId, JobRecord> jobs_;
  std::deque<core::JobId> queue_;
  std::vector<core::JobId> running_;
  std::vector<core::JobId> completed_;
  std::vector<core::JobId> node_owner_;   // [node]
  std::vector<char> node_unavailable_;    // [node]
  std::uint64_t next_job_ = 1;
  NodeCheck pre_check_;
  NodeCheck post_check_;
  NodeCheck problem_probe_;
  JobCallback on_start_;
  JobCallback on_end_;
  std::int64_t span_sum_ = 0;
  std::int64_t span_count_ = 0;
};

}  // namespace hpcmon::sim
