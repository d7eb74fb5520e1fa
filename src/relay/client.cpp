#include "relay/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <span>

#include "serve/protocol.hpp"
#include "serve/sockio.hpp"
#include "transport/codec.hpp"

namespace hpcmon::relay {

namespace {

/// Seqs reserved per durable lease write: a restart burns at most one lease
/// block of the 64-bit space, so the state file is rewritten once per
/// ~65k appends instead of once per append.
constexpr std::uint64_t kSeqLeaseBlock = 1u << 16;

/// While appends are in flight and the window has room, the worker's ack
/// wait lasts at most kNap, so entries submitted meanwhile go out without
/// submit() waking it.
constexpr std::chrono::microseconds kNap{100};

constexpr std::uint8_t kStateVersion = 1;
constexpr std::uint8_t kStateMagic[4] = {'H', 'R', 'L', 'Y'};

/// The reconnect and refusal breakers' schedule: open on one failure for
/// backoff_ms, doubling per failed probe up to backoff_max_ms, never under
/// 1 ms, so no setting lets the worker spin.
resilience::BreakerConfig backoff_schedule(const RelayConfig& config) {
  const int first = std::max(1, config.backoff_ms);
  return {
      .failure_threshold = 1,
      .cooldown = first * core::kMillisecond,
      .backoff_factor = 2.0,
      .max_cooldown = std::max(first, config.backoff_max_ms) *
                      core::kMillisecond,
      .jitter = 0.1,
  };
}

}  // namespace

std::int64_t RelayClient::now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

RelayClient::RelayClient(RelayConfig config)
    : config_(std::move(config)),
      breaker_(backoff_schedule(config_), 0x5EEDB4EAull ^ config_.source_id),
      refusals_(backoff_schedule(config_), 0x5EEDB4EBull ^ config_.source_id) {}

RelayClient::~RelayClient() { stop(); }

void RelayClient::attach_to(obs::ObsRegistry& registry) const {
  registry.attach({"relay.submitted_batches", "batches",
                   "append entries enqueued for forwarding"},
                  &submitted_batches_);
  registry.attach({"relay.submitted_samples", "samples",
                   "samples enqueued for forwarding"},
                  &submitted_samples_);
  registry.attach({"relay.shed_batches", "batches",
                   "unsent bulk/standard entries shed by the queue bound"},
                  &shed_batches_);
  registry.attach({"relay.sent_batches", "batches", "append frames sent"},
                  &sent_batches_);
  registry.attach({"relay.resent_batches", "batches",
                   "append frames re-sent after a lost ack or reconnect"},
                  &resent_batches_);
  registry.attach({"relay.acked_batches", "batches",
                   "entries acknowledged (durably applied upstream)"},
                  &acked_batches_);
  registry.attach({"relay.acked_samples", "samples",
                   "samples acknowledged (durably applied upstream)"},
                  &acked_samples_);
  registry.attach({"relay.rejected_batches", "batches",
                   "entries the server answered kError for (dropped)"},
                  &rejected_batches_);
  registry.attach({"relay.connects", "conns", "successful upstream connects"},
                  &connects_);
  registry.attach({"relay.connect_failures", "conns",
                   "failed connect/hello attempts (breaker-counted)"},
                  &connect_failures_);
  registry.attach({"relay.disconnects", "conns",
                   "connections torn down (error, timeout, or fault)"},
                  &disconnects_);
  registry.attach({"relay.ack_timeouts", "acks",
                   "ack waits that hit the read deadline"},
                  &ack_timeouts_);
  registry.attach({"relay.state_write_errors", "writes",
                   "state-file persists that failed (retried later)"},
                  &state_write_errors_);
  registry.attach({"relay.pending", "batches", "entries awaiting ack"},
                  &pending_gauge_);
  registry.attach({"relay.in_flight", "batches",
                   "appends sent and not yet acked (at most the send window)"},
                  &in_flight_gauge_);
  registry.attach({"relay.watermark", "seq",
                   "highest seq contiguously applied upstream"},
                  &watermark_gauge_);
  registry.attach({"relay.ack_rtt_us", "us",
                   "append send-to-ack latency, including time queued behind "
                   "earlier appends in the send window"},
                  &ack_rtt_us_);
}

bool RelayClient::start() {
  if (running_) return true;
  stop_ = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    load_state();
  }
  worker_ = std::thread([this] { worker(); });
  running_ = true;
  return true;
}

void RelayClient::stop() {
  if (!running_) return;
  {
    // Under mu_, so a worker that just checked stop_ in a cv_ wait cannot
    // miss the wakeup.
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  running_ = false;
  std::lock_guard<std::mutex> lock(mu_);
  // Persist the exact resume point: the lease is shrunk back to what was
  // actually consumed, so a clean restart wastes no seq space.
  persist_state_locked(next_seq_ > 0 ? next_seq_ - 1 : 0);
}

std::size_t RelayClient::submit(const core::SampleBatch& batch) {
  if (batch.samples.empty() || stop_) return 0;
  const auto class_of = [this](const core::Sample& s) {
    return config_.priority_of ? config_.priority_of(s.series)
                               : core::Priority::kStandard;
  };
  // Encode each <= batch_samples chunk outside the lock.
  const std::size_t chunk = std::max<std::size_t>(1, config_.batch_samples);
  std::vector<Pending> entries;
  const auto add = [&](core::Priority cls,
                       std::span<const core::Sample> samples) {
    for (std::size_t off = 0; off < samples.size(); off += chunk) {
      const auto part =
          samples.subspan(off, std::min(chunk, samples.size() - off));
      Pending p;
      p.priority = cls;
      p.samples = part.size();
      p.payload =
          transport::encode_samples(batch.sweep_time, batch.origin, part)
              .payload;
      entries.push_back(std::move(p));
    }
  };
  const auto first = class_of(batch.samples.front());
  if (std::all_of(batch.samples.begin() + 1, batch.samples.end(),
                  [&](const core::Sample& s) { return class_of(s) == first; })) {
    // One class (the common case): chunk straight from the caller's samples.
    add(first, batch.samples);
  } else {
    // Partition by priority class, preserving order within each class.
    std::array<std::vector<core::Sample>, core::kPriorityClasses> by_class;
    for (const auto& s : batch.samples) {
      by_class[static_cast<std::size_t>(class_of(s))].push_back(s);
    }
    for (std::size_t c = 0; c < core::kPriorityClasses; ++c) {
      add(static_cast<core::Priority>(c), by_class[c]);
    }
  }
  std::size_t enqueued = 0;
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // The worker waits on cv_ only while the queue is empty; otherwise it
    // picks up new entries within kNap, or when an ack frees room in a full
    // window.
    const bool was_empty = queue_.empty();
    for (auto& p : entries) {
      const auto cls = p.priority;
      if (queue_.size() >= config_.queue_cap &&
          cls != core::Priority::kCritical) {
        // Drop-oldest within the lowest sheddable class, never anything
        // already holding a seq (the sent-unacked region must stay
        // contiguous or the server watermark would stall on the gap).
        auto victim = queue_.end();
        for (auto cand = static_cast<int>(core::kPriorityClasses) - 1;
             cand >= static_cast<int>(cls) && victim == queue_.end();
             --cand) {
          victim = std::find_if(queue_.begin(), queue_.end(),
                                [&](const Pending& e) {
                                  return e.seq == 0 &&
                                         e.priority ==
                                             static_cast<core::Priority>(cand);
                                });
        }
        shed_batches_.add();
        if (victim == queue_.end()) continue;  // nothing lower: shed incoming
        queue_.erase(victim);
      }
      submitted_batches_.add();
      submitted_samples_.add(p.samples);
      queue_.push_back(std::move(p));
      ++enqueued;
    }
    pending_gauge_.set(static_cast<double>(queue_.size()));
    wake = was_empty && enqueued > 0;
  }
  if (wake) cv_.notify_one();
  return enqueued;
}

bool RelayClient::drain_for(int timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.notify_all();
  drain_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                     [&] { return queue_.empty() || stop_.load(); });
  return queue_.empty();
}

std::uint64_t RelayClient::watermark() const {
  std::lock_guard<std::mutex> lock(mu_);
  return watermark_;
}

std::size_t RelayClient::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

RelayStats RelayClient::stats() const {
  RelayStats s;
  s.submitted_batches = submitted_batches_.value();
  s.submitted_samples = submitted_samples_.value();
  s.shed_batches = shed_batches_.value();
  s.sent_batches = sent_batches_.value();
  s.resent_batches = resent_batches_.value();
  s.acked_batches = acked_batches_.value();
  s.acked_samples = acked_samples_.value();
  s.rejected_batches = rejected_batches_.value();
  s.connects = connects_.value();
  s.connect_failures = connect_failures_.value();
  s.disconnects = disconnects_.value();
  s.ack_timeouts = ack_timeouts_.value();
  s.state_write_errors = state_write_errors_.value();
  std::lock_guard<std::mutex> lock(mu_);
  s.watermark = watermark_;
  s.pending = queue_.size();
  s.connected = connected_;
  return s;
}

void RelayClient::worker() {
  while (!stop_) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (queue_.empty()) {
        drain_cv_.notify_all();
        cv_.wait_for(lock, std::chrono::milliseconds(10),
                     [&] { return stop_.load() || !queue_.empty(); });
        if (stop_ || queue_.empty()) continue;
      }
    }
    if (!ensure_connected()) {
      // Breaker denial or failed attempt: bounded nap, so we neither spin
      // nor oversleep the retry_at the breaker scheduled.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      continue;
    }
    if (!send_window() || !await_replies()) disconnect();
  }
  disconnect();
}

bool RelayClient::ensure_connected() {
  if (fd_ >= 0) return true;
  if (!breaker_.allow(now_us())) return false;
  const auto fail = [&] {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    breaker_.record_failure(now_us());
    connect_failures_.add();
    return false;
  };
  if (!serve::faulty_connect_allowed(config_.socket_faults)) return fail();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return fail();
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // A window of appends can outgrow the socket buffers. If the peer stops
  // reading, a send that makes no progress for ack_timeout_ms fails like an
  // ack that never comes, so the worker (and stop()) cannot block forever.
  const timeval send_timeout{config_.ack_timeout_ms / 1000,
                             (config_.ack_timeout_ms % 1000) * 1000};
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
               sizeof(send_timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.upstream_port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return fail();
  }
  assembler_ = serve::WireAssembler();
  // Hello: announce the first unacked seq (next_seq_ when nothing holds
  // one), so the server stops waiting on seqs below it. Its watermark reply
  // is authoritative: everything at or below it is durably applied (drop
  // it), and next_seq must jump past it so a lost state file can never
  // re-use a consumed seq.
  serve::RelayHello hello{config_.source_id, 0};
  {
    std::lock_guard<std::mutex> lock(mu_);
    hello.resume_seq = !queue_.empty() && queue_.front().seq != 0
                           ? queue_.front().seq
                           : next_seq_;
  }
  std::vector<std::uint8_t> hello_frame;
  serve::append_wire_frame(hello_frame, serve::MsgType::kRelayHello,
                           next_request_++, serve::encode_relay_hello(hello));
  if (!send_bytes(hello_frame)) return fail();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(config_.ack_timeout_ms);
  std::optional<serve::WireFrame> reply;
  while (!(reply = next_reply())) {
    const auto got = read_some(deadline);
    if (got == ReadResult::kIdle) ack_timeouts_.add();
    if (got != ReadResult::kFed) return fail();
  }
  if (reply->type != serve::MsgType::kOk) return fail();
  serve::RelayAck ack;
  if (!serve::decode_relay_ack(reply->body, ack)) return fail();
  {
    std::lock_guard<std::mutex> lock(mu_);
    advance_watermark_locked(ack.watermark);
    if (watermark_ >= next_seq_) {
      next_seq_ = watermark_ + 1;
      if (next_seq_ > lease_end_) {
        persist_state_locked(next_seq_ + kSeqLeaseBlock);
      }
    }
  }
  breaker_.record_success(now_us());
  connects_.add();
  connected_ = true;
  return true;
}

void RelayClient::disconnect() {
  {
    // Whatever was in flight is resent from the first unacked entry.
    std::lock_guard<std::mutex> lock(mu_);
    in_flight_ = 0;
    in_flight_gauge_.set(0);
  }
  if (fd_ < 0) return;
  ::close(fd_);
  fd_ = -1;
  if (connected_.exchange(false)) disconnects_.add();
}

bool RelayClient::send_bytes(const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    // Each send that makes progress restarts the send timeout, so a peer
    // that reads slowly could otherwise hold stop() for a whole window.
    if (stop_) return false;
    const ssize_t n = serve::faulty_send(fd_, bytes.data() + off,
                                         bytes.size() - off,
                                         config_.socket_faults);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

RelayClient::ReadResult RelayClient::read_some(
    std::chrono::steady_clock::time_point deadline) {
  if (assembler_.errored()) return ReadResult::kClosed;
  while (true) {
    const auto ns = std::max<std::int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(
               deadline - std::chrono::steady_clock::now())
               .count());
    const timespec ts{static_cast<time_t>(ns / 1'000'000'000),
                      static_cast<long>(ns % 1'000'000'000)};
    pollfd pfd{fd_, POLLIN, 0};
    const int pr = ::ppoll(&pfd, 1, &ts, nullptr);
    if (pr == 0) return ReadResult::kIdle;
    if (pr < 0) {
      if (errno == EINTR) continue;
      return ReadResult::kClosed;
    }
    std::uint8_t buf[64 * 1024];
    const ssize_t n =
        serve::faulty_recv(fd_, buf, sizeof(buf), config_.socket_faults);
    if (n > 0) {
      return assembler_.feed(buf, static_cast<std::size_t>(n))
                 ? ReadResult::kFed
                 : ReadResult::kClosed;
    }
    if (n < 0 && errno == EINTR) continue;
    return ReadResult::kClosed;
  }
}

std::optional<serve::WireFrame> RelayClient::next_reply() {
  while (auto frame = assembler_.next()) {
    // The relay connection never subscribes, but stay robust to pushes.
    if (frame->type == serve::MsgType::kSnapshot ||
        frame->type == serve::MsgType::kDelta) {
      continue;
    }
    return frame;
  }
  return std::nullopt;
}

bool RelayClient::send_window() {
  send_buf_.clear();
  std::uint64_t frames = 0;
  std::uint64_t resent = 0;
  {
    // After a refusal, wait out the refusal breaker's cooldown; the probe it
    // then admits is the one append the window allows.
    std::unique_lock<std::mutex> lock(mu_);
    if (refusals_.state() == resilience::BreakerState::kOpen) {
      cv_.wait_for(lock,
                   std::chrono::microseconds(refusals_.retry_at() - now_us()),
                   [&] { return stop_.load(); });
      if (!refusals_.allow(now_us())) return true;
    }
  }
  const auto now = std::chrono::steady_clock::now();
  // One entry per lock hold, and frames are encoded outside it, so submit()
  // never waits on a window's worth of copies.
  while (true) {
    serve::RelayAppend msg;
    std::uint32_t request_id = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (in_flight_ >= queue_.size() || in_flight_ >= window_locked()) break;
      Pending& p = queue_[in_flight_++];
      if (p.seq == 0) {
        p.seq = next_seq_++;
        if (next_seq_ > lease_end_) {
          persist_state_locked(next_seq_ + kSeqLeaseBlock);
        }
      }
      if (p.sent_once) ++resent;
      p.sent_once = true;
      p.request_id = request_id = next_request_++;
      p.sent_at = now;
      msg = {config_.source_id, p.seq, p.priority, p.payload};
      in_flight_gauge_.set(static_cast<double>(in_flight_));
    }
    serve::append_wire_frame(send_buf_, serve::MsgType::kRelayAppend,
                             request_id, serve::encode_relay_append(msg));
    ++frames;
  }
  if (frames == 0) return true;
  if (!send_bytes(send_buf_)) return false;
  sent_batches_.add(frames);
  resent_batches_.add(resent);
  return true;
}

bool RelayClient::await_replies() {
  std::chrono::steady_clock::time_point deadline;
  bool room = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (in_flight_ == 0) return true;
    room = in_flight_ < window_locked();
    if (room && in_flight_ < queue_.size()) return true;  // more to send
    deadline = queue_.front().sent_at +
               std::chrono::milliseconds(config_.ack_timeout_ms);
  }
  // Wait for the oldest outstanding append's ack no longer than its
  // deadline; with room in the window, no longer than kNap either, so
  // entries submitted meanwhile go out without submit() waking anyone.
  const auto until =
      room ? std::min(deadline, std::chrono::steady_clock::now() + kNap)
           : deadline;
  switch (read_some(until)) {
    case ReadResult::kClosed:
      return false;
    case ReadResult::kIdle:
      if (std::chrono::steady_clock::now() < deadline) return true;  // nap
      ack_timeouts_.add();
      return false;
    case ReadResult::kFed:
      break;
  }
  while (auto frame = next_reply()) {
    if (!handle_reply(*frame)) return false;
  }
  return !assembler_.errored();
}

bool RelayClient::handle_reply(const serve::WireFrame& reply) {
  serve::RelayAck ack;
  const bool is_ack = reply.type == serve::MsgType::kOk;
  if (is_ack && !serve::decode_relay_ack(reply.body, ack)) return false;
  std::lock_guard<std::mutex> lock(mu_);
  if (in_flight_ == 0 || queue_.front().request_id != reply.request_id) {
    // A reply to a send already given up on (go-back-N): its watermark is
    // cumulative, so it is still safe to apply.
    if (is_ack) advance_watermark_locked(ack.watermark);
    return true;
  }
  if (!is_ack) {
    // The server refused (no relay hook, or the payload failed to decode
    // server-side). Drop the poison entry rather than loop on it; the
    // harness asserts this stays zero. Then reconnect: the next hello moves
    // the server's watermark past the dropped seq instead of leaving a hole
    // it would wait on forever.
    queue_.pop_front();
    --in_flight_;
    rejected_batches_.add();
    pending_gauge_.set(static_cast<double>(queue_.size()));
    in_flight_gauge_.set(static_cast<double>(in_flight_));
    if (queue_.empty()) drain_cv_.notify_all();
    return false;
  }
  ack_rtt_us_.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - queue_.front().sent_at)
          .count()));
  advance_watermark_locked(ack.watermark);
  if (in_flight_ > 0 && queue_.front().request_id == reply.request_id) {
    // Acked without being covered. The hello put the server's watermark
    // just below the first unacked entry, so this is the next seq it
    // expects, and it refused to apply it: it could not make it durable.
    // Go back N — resend from the first unacked entry, in seq order; the
    // replies still due for this round are stale. The refusal breaker opens
    // (or, for a refused probe, re-opens for twice as long), so a failing
    // aggregator WAL costs one append per cooldown.
    in_flight_ = 0;
    in_flight_gauge_.set(0);
    refusals_.record_failure(now_us());
  }
  return true;
}

void RelayClient::advance_watermark_locked(std::uint64_t watermark) {
  if (watermark > watermark_) {
    watermark_ = watermark;
    watermark_gauge_.set(static_cast<double>(watermark_));
    refusals_.record_success(now_us());
  }
  while (!queue_.empty() && queue_.front().seq != 0 &&
         queue_.front().seq <= watermark_) {
    acked_batches_.add();
    acked_samples_.add(queue_.front().samples);
    queue_.pop_front();
    if (in_flight_ > 0) --in_flight_;
  }
  pending_gauge_.set(static_cast<double>(queue_.size()));
  in_flight_gauge_.set(static_cast<double>(in_flight_));
  if (queue_.empty()) drain_cv_.notify_all();
}

void RelayClient::load_state() {
  next_seq_ = 1;
  lease_end_ = 0;
  if (config_.state_path.empty()) return;
  std::FILE* f = std::fopen(config_.state_path.c_str(), "rb");
  if (f == nullptr) return;
  std::uint8_t buf[4 + 1 + 8 + 8 + 8];
  const std::size_t n = std::fread(buf, 1, sizeof(buf), f);
  std::fclose(f);
  if (n != sizeof(buf) || std::memcmp(buf, kStateMagic, 4) != 0 ||
      buf[4] != kStateVersion) {
    return;  // torn or foreign state: the hello heal covers the gap
  }
  std::uint64_t source = 0;
  std::uint64_t lease = 0;
  std::uint64_t mark = 0;
  std::memcpy(&source, buf + 5, 8);
  std::memcpy(&lease, buf + 13, 8);
  std::memcpy(&mark, buf + 21, 8);
  if (source != config_.source_id) return;
  // Seqs up to the lease may have been consumed before the crash; resume
  // strictly after it.
  next_seq_ = lease + 1;
  lease_end_ = lease;
  watermark_ = mark;
}

void RelayClient::persist_state_locked(std::uint64_t lease_end) {
  if (config_.state_path.empty()) {
    lease_end_ = lease_end;
    return;
  }
  const auto fault = [&](core::FsOp op) {
    return config_.fs_faults != nullptr ? config_.fs_faults->fs_fault(op)
                                        : core::FsFault::kNone;
  };
  const auto failed = [&] {
    state_write_errors_.add();
  };
  const std::string tmp = config_.state_path + ".tmp";
  if (fault(core::FsOp::kOpen) != core::FsFault::kNone) return failed();
  const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC,
                        0644);
  if (fd < 0) return failed();
  std::uint8_t buf[4 + 1 + 8 + 8 + 8];
  std::memcpy(buf, kStateMagic, 4);
  buf[4] = kStateVersion;
  std::memcpy(buf + 5, &config_.source_id, 8);
  std::memcpy(buf + 13, &lease_end, 8);
  std::memcpy(buf + 21, &watermark_, 8);
  const auto wf = fault(core::FsOp::kWrite);
  if (wf != core::FsFault::kNone) {
    if (wf == core::FsFault::kShortWrite) {
      [[maybe_unused]] auto r = ::write(fd, buf, sizeof(buf) / 2);
    }
    ::close(fd);
    ::unlink(tmp.c_str());
    return failed();
  }
  if (::write(fd, buf, sizeof(buf)) != static_cast<ssize_t>(sizeof(buf))) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return failed();
  }
  if (fault(core::FsOp::kFsync) != core::FsFault::kNone || ::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return failed();
  }
  ::close(fd);
  if (fault(core::FsOp::kRename) != core::FsFault::kNone ||
      ::rename(tmp.c_str(), config_.state_path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return failed();
  }
  lease_end_ = lease_end;
}

}  // namespace hpcmon::relay
