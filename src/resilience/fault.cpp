#include "resilience/fault.hpp"

#include <stdexcept>

namespace hpcmon::resilience {

FaultPlan::FaultPlan(std::uint64_t seed, FaultSpec spec)
    : rng_(seed), spec_(spec) {}

void FaultPlan::set_spec(FaultSpec spec) {
  std::scoped_lock lock(mu_);
  spec_ = spec;
}

FaultSpec FaultPlan::spec() const {
  std::scoped_lock lock(mu_);
  return spec_;
}

bool FaultPlan::draw(double p, std::uint64_t& counter, std::uint64_t at,
                     std::uint64_t& injected_counter, bool sticky) {
  ++counter;
  bool fire = at != 0 && (counter == at || (sticky && counter > at));
  if (!fire && p > 0.0) fire = rng_.bernoulli(p);
  if (fire) ++injected_counter;
  return fire;
}

bool FaultPlan::sampler_error() {
  std::scoped_lock lock(mu_);
  return draw(spec_.sampler_error_p, sampler_error_ops_,
              spec_.sampler_error_at, injected_.sampler_errors);
}

bool FaultPlan::sampler_hang() {
  std::scoped_lock lock(mu_);
  return draw(spec_.sampler_hang_p, sampler_hang_ops_, spec_.sampler_hang_at,
              injected_.sampler_hangs, spec_.sampler_hang_sticky);
}

core::FsFault FaultPlan::fs_fault(core::FsOp op) {
  std::scoped_lock lock(mu_);
  ++fs_ops_;
  const auto at = [&](std::uint64_t n) { return n != 0 && fs_ops_ == n; };
  const auto p = [&](double prob) { return prob > 0.0 && rng_.bernoulli(prob); };
  // At most one fault per op; scripted one-shots and the most disruptive
  // classes win. Applicability: short writes only tear kWrite; rename
  // errors only hit kRename; ENOSPC hits the space-consuming ops; generic
  // errors and crashes hit everything.
  if (at(spec_.fs_crash_at) || p(spec_.fs_crash_p)) {
    ++injected_.fs_crashes;
    return core::FsFault::kCrash;
  }
  if (op == core::FsOp::kRename &&
      (at(spec_.fs_rename_error_at) || p(spec_.fs_rename_error_p))) {
    ++injected_.fs_rename_errors;
    return core::FsFault::kError;
  }
  if (op == core::FsOp::kWrite &&
      (at(spec_.fs_short_write_at) || p(spec_.fs_short_write_p))) {
    ++injected_.fs_short_writes;
    return core::FsFault::kShortWrite;
  }
  if ((op == core::FsOp::kOpen || op == core::FsOp::kWrite ||
       op == core::FsOp::kFsync) &&
      (at(spec_.fs_enospc_at) || p(spec_.fs_enospc_p))) {
    ++injected_.fs_enospc;
    return core::FsFault::kEnospc;
  }
  if (at(spec_.fs_error_at) || p(spec_.fs_error_p)) {
    ++injected_.fs_errors;
    return core::FsFault::kError;
  }
  return core::FsFault::kNone;
}

std::uint64_t FaultPlan::fs_ops() const {
  std::scoped_lock lock(mu_);
  return fs_ops_;
}

core::SocketFault FaultPlan::socket_fault(core::SocketOp op) {
  std::scoped_lock lock(mu_);
  ++sock_ops_;
  const auto at = [&](std::uint64_t n) { return n != 0 && sock_ops_ == n; };
  const auto p = [&](double prob) { return prob > 0.0 && rng_.bernoulli(prob); };
  // At most one fault per op; scripted one-shots and the most disruptive
  // classes win. Applicability: torn frames and short writes only mangle
  // kSend; short reads only hit kRecv; resets and stalls hit everything.
  if (at(spec_.sock_reset_at) || p(spec_.sock_reset_p)) {
    ++injected_.sock_resets;
    return core::SocketFault::kReset;
  }
  if (op == core::SocketOp::kSend &&
      (at(spec_.sock_torn_frame_at) || p(spec_.sock_torn_frame_p))) {
    ++injected_.sock_torn_frames;
    return core::SocketFault::kTornFrame;
  }
  if (op == core::SocketOp::kSend &&
      (at(spec_.sock_short_write_at) || p(spec_.sock_short_write_p))) {
    ++injected_.sock_short_writes;
    return core::SocketFault::kShortWrite;
  }
  if (op == core::SocketOp::kRecv &&
      (at(spec_.sock_short_read_at) || p(spec_.sock_short_read_p))) {
    ++injected_.sock_short_reads;
    return core::SocketFault::kShortRead;
  }
  if (at(spec_.sock_stall_at) || p(spec_.sock_stall_p)) {
    ++injected_.sock_stalls;
    return core::SocketFault::kStall;
  }
  return core::SocketFault::kNone;
}

std::uint64_t FaultPlan::socket_ops() const {
  std::scoped_lock lock(mu_);
  return sock_ops_;
}

bool FaultPlan::delivery_error() {
  std::scoped_lock lock(mu_);
  return draw(spec_.delivery_error_p, delivery_ops_, spec_.delivery_error_at,
              injected_.delivery_errors);
}

bool FaultPlan::flush_error() {
  std::scoped_lock lock(mu_);
  return draw(0.0, flush_ops_, spec_.flush_error_at, injected_.flush_errors);
}

void FaultPlan::enter_hang() {
  std::unique_lock lock(mu_);
  if (released_) return;
  ++hanging_;
  hang_cv_.wait(lock, [&] { return released_; });
  --hanging_;
  hang_cv_.notify_all();
}

void FaultPlan::release_hangs() {
  std::unique_lock lock(mu_);
  released_ = true;
  hang_cv_.notify_all();
  hang_cv_.wait(lock, [&] { return hanging_ == 0; });
}

std::size_t FaultPlan::active_hangs() const {
  std::scoped_lock lock(mu_);
  return hanging_;
}

InjectedFaults FaultPlan::injected() const {
  std::scoped_lock lock(mu_);
  return injected_;
}

void FaultySampler::sample(core::TimePoint sweep_time, core::SampleBatch& out) {
  if (plan_.sampler_hang()) {
    plan_.enter_hang();
    return;  // released long after the sweep: contributes nothing
  }
  if (plan_.sampler_error()) {
    throw std::runtime_error("injected sampler fault: " + inner_->name());
  }
  inner_->sample(sweep_time, out);
}

}  // namespace hpcmon::resilience
