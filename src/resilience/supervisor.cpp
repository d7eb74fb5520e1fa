#include "resilience/supervisor.hpp"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace hpcmon::resilience {

SupervisedSampler::SupervisedSampler(std::unique_ptr<collect::Sampler> inner,
                                     SupervisorOptions options)
    : inner_(std::move(inner)),
      options_(options),
      breaker_(options.breaker, options.seed) {}

void SupervisedSampler::sample(core::TimePoint sweep_time,
                               core::SampleBatch& out) {
  calls_.add();
  const auto stride = stride_.load(std::memory_order_relaxed);
  const auto seq = sweep_seq_++;
  if (stride > 1 && (seq % stride) != 0) {
    downsampled_.add();
    return;  // degraded cadence: skip this sweep, no breaker accounting
  }
  if (!breaker_.allow(sweep_time)) {
    skipped_.add();
    return;  // quarantined: the sweep proceeds without this source
  }
  if (options_.deadline_ms <= 0) {
    run_inline(sweep_time, out);
  } else {
    run_with_deadline(sweep_time, out);
  }
}

void SupervisedSampler::run_inline(core::TimePoint sweep_time,
                                   core::SampleBatch& out) {
  const std::size_t before = out.samples.size();
  try {
    inner_->sample(sweep_time, out);
  } catch (const std::exception&) {
    // Partial output from a throwing sampler is untrustworthy; discard it.
    out.samples.resize(before);
    errors_.add();
    breaker_.record_failure(sweep_time);
    return;
  }
  successes_.add();
  samples_merged_.add(out.samples.size() - before);
  breaker_.record_success(sweep_time);
}

void SupervisedSampler::run_with_deadline(core::TimePoint sweep_time,
                                          core::SampleBatch& out) {
  // The job outlives an abandoned call via shared ownership: the watchdog
  // thread only touches the job and its own copy of inner_, never `out` or
  // `this`, so a timeout cleanly detaches it.
  struct Job {
    core::SampleBatch batch;
    bool done = false;
    bool failed = false;
    std::mutex mu;
    std::condition_variable cv;
  };
  auto job = std::make_shared<Job>();
  job->batch.sweep_time = out.sweep_time;
  job->batch.origin = out.origin;
  std::thread watchdog([inner = inner_, job, sweep_time] {
    bool failed = false;
    try {
      inner->sample(sweep_time, job->batch);
    } catch (const std::exception&) {
      failed = true;
    }
    {
      std::scoped_lock lock(job->mu);
      job->done = true;
      job->failed = failed;
    }
    job->cv.notify_all();
  });

  bool done = false;
  {
    std::unique_lock lock(job->mu);
    done = job->cv.wait_for(lock, std::chrono::milliseconds(options_.deadline_ms),
                            [&] { return job->done; });
  }
  if (!done) {
    watchdog.detach();  // abandon the hung call; its output is discarded
    timeouts_.add();
    breaker_.record_failure(sweep_time);
    return;
  }
  watchdog.join();
  if (job->failed) {
    errors_.add();
    breaker_.record_failure(sweep_time);
    return;
  }
  out.samples.insert(out.samples.end(), job->batch.samples.begin(),
                     job->batch.samples.end());
  successes_.add();
  samples_merged_.add(job->batch.samples.size());
  breaker_.record_success(sweep_time);
}

void SupervisedSampler::attach_to(obs::ObsRegistry& registry) const {
  registry.attach({"resilience.sampler_calls", "calls",
                   "sweeps routed at supervised samplers"},
                  &calls_);
  registry.attach({"resilience.sampler_successes", "calls",
                   "supervised sampler calls that completed in time"},
                  &successes_);
  registry.attach({"resilience.sampler_errors", "calls",
                   "supervised sampler calls that threw"},
                  &errors_);
  registry.attach({"resilience.sampler_timeouts", "calls",
                   "supervised sampler calls abandoned at the deadline"},
                  &timeouts_);
  registry.attach({"resilience.sampler_skipped", "calls",
                   "sweeps that skipped a quarantined (breaker-open) sampler"},
                  &skipped_);
  registry.attach({"resilience.sampler_downsampled", "calls",
                   "sweeps skipped by a widened degradation cadence"},
                  &downsampled_);
  registry.attach({"resilience.sampler_samples", "samples",
                   "samples merged into sweeps by supervised samplers"},
                  &samples_merged_);
  breaker_.attach_to(registry);
}

}  // namespace hpcmon::resilience
