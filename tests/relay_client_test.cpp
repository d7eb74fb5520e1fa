// Relay tier unit tests over a real loopback wire: forwarding with acks,
// the server's in-order apply and (source, seq) dedupe, the backoff after
// an append the upstream could not make durable, the hello heal
// after state-file loss, the resume hello after a node crash or an
// aggregator restart, the send window's depth, priority-aware shedding, and
// seq-lease persistence.
#include "relay/client.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "obs/registry.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "store/tsdb.hpp"
#include "transport/codec.hpp"

namespace hpcmon::relay {
namespace {

/// An aggregator stand-in: a ServeServer whose relay hook appends into a
/// plain TimeSeriesStore and counts every apply (the exactly-once ledger).
struct Upstream {
  store::TimeSeriesStore store;
  std::atomic<std::uint64_t> applies{0};
  std::atomic<std::uint64_t> applied_samples{0};
  /// While set, an apply parks the server until it is cleared.
  std::atomic<bool> hold{false};
  /// While set, every apply reports that the batch could not be made
  /// durable, and the server refuses it.
  std::atomic<bool> refuse{false};
  std::atomic<std::uint64_t> refusals{0};
  std::unique_ptr<serve::ServeServer> server;

  explicit Upstream(serve::ServeConfig config = {}) {
    serve::ServeHooks hooks;
    hooks.relay_apply =
        [this](const transport::Frame&,
               const core::SampleBatch& b) -> std::optional<std::size_t> {
      while (hold.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (refuse.load()) {
        ++refusals;
        return std::nullopt;
      }
      ++applies;
      const auto n = store.append_batch(b.samples);
      applied_samples += n;
      return n;
    };
    server = std::make_unique<serve::ServeServer>(config, std::move(hooks));
    EXPECT_TRUE(server->start()) << server->error();
  }
};

core::SampleBatch make_batch(core::SeriesId series, core::TimePoint t0,
                             int n) {
  core::SampleBatch batch;
  batch.sweep_time = t0;
  for (int i = 0; i < n; ++i) {
    batch.samples.push_back(
        {series, t0 + i * 10, static_cast<double>(t0 + i)});
  }
  return batch;
}

/// A raw wire peer for driving the server's watermarks directly with
/// hand-built (source, seq) appends — the client never sends these shapes.
class RawPeer {
 public:
  bool connect(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }
  ~RawPeer() {
    if (fd_ >= 0) ::close(fd_);
  }

  std::optional<serve::WireFrame> call(serve::MsgType type,
                                       const std::vector<std::uint8_t>& body) {
    std::vector<std::uint8_t> bytes;
    serve::append_wire_frame(bytes, type, next_id_++, body);
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return std::nullopt;
      off += static_cast<std::size_t>(n);
    }
    while (true) {
      if (auto frame = assembler_.next()) return frame;
      std::uint8_t buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return std::nullopt;
      if (!assembler_.feed(buf, static_cast<std::size_t>(n))) {
        return std::nullopt;
      }
    }
  }

  /// kRelayHello with `body` as given; the reply's watermark.
  std::optional<std::uint64_t> hello(const std::vector<std::uint8_t>& body) {
    auto reply = call(serve::MsgType::kRelayHello, body);
    serve::RelayAck ack;
    if (!reply || reply->type != serve::MsgType::kOk ||
        !serve::decode_relay_ack(reply->body, ack)) {
      return std::nullopt;
    }
    return ack.watermark;
  }

  std::optional<serve::RelayAck> append(std::uint64_t source,
                                        std::uint64_t seq,
                                        const core::SampleBatch& batch) {
    serve::RelayAppend msg;
    msg.source_id = source;
    msg.seq = seq;
    msg.payload = transport::encode_samples(batch).payload;
    auto reply = call(serve::MsgType::kRelayAppend,
                      serve::encode_relay_append(msg));
    if (!reply || reply->type != serve::MsgType::kOk) return std::nullopt;
    serve::RelayAck ack;
    if (!serve::decode_relay_ack(reply->body, ack)) return std::nullopt;
    return ack;
  }

 private:
  int fd_ = -1;
  std::uint32_t next_id_ = 1;
  serve::WireAssembler assembler_;
};

TEST(RelayClientTest, ForwardsBatchesByteExactAndAdvancesWatermark) {
  Upstream up;
  RelayConfig rc;
  rc.upstream_port = up.server->port();
  rc.backoff_ms = 1;
  RelayClient client(rc);
  ASSERT_TRUE(client.start());

  const core::SeriesId series{7};
  core::SampleBatch sent;
  for (int b = 0; b < 5; ++b) {
    auto batch = make_batch(series, 1000 * b, 20);
    sent.samples.insert(sent.samples.end(), batch.samples.begin(),
                        batch.samples.end());
    EXPECT_EQ(client.submit(batch), 1u);
  }
  ASSERT_TRUE(client.drain_for(5000));
  client.stop();

  const auto stored =
      up.store.query_range(series, {0, 1000 * 5 + core::kHour});
  ASSERT_EQ(stored.size(), sent.samples.size());
  for (std::size_t i = 0; i < stored.size(); ++i) {
    EXPECT_EQ(stored[i].time, sent.samples[i].time);
    EXPECT_EQ(stored[i].value, sent.samples[i].value);
  }
  const auto stats = client.stats();
  EXPECT_EQ(stats.acked_batches, 5u);
  EXPECT_EQ(stats.acked_samples, sent.samples.size());
  EXPECT_EQ(stats.watermark, 5u);
  EXPECT_EQ(up.applies.load(), 5u);
  EXPECT_EQ(up.server->stats().relay_applied_batches, 5u);
}

TEST(RelayClientTest, SplitsByPriorityClassAndChunkSize) {
  Upstream up;
  RelayConfig rc;
  rc.upstream_port = up.server->port();
  rc.batch_samples = 8;
  rc.priority_of = [](core::SeriesId id) {
    return core::raw(id) == 1 ? core::Priority::kCritical : core::Priority::kBulk;
  };
  RelayClient client(rc);
  ASSERT_TRUE(client.start());

  core::SampleBatch mixed;
  for (int i = 0; i < 20; ++i) {
    mixed.samples.push_back({core::SeriesId{1}, i * 10, 1.0});
    mixed.samples.push_back({core::SeriesId{2}, i * 10, 2.0});
  }
  // 20 critical + 20 bulk at <= 8 samples per entry: 3 + 3 entries.
  EXPECT_EQ(client.submit(mixed), 6u);
  ASSERT_TRUE(client.drain_for(5000));
  client.stop();
  EXPECT_EQ(up.store.query_range(core::SeriesId{1}, {0, 1000}).size(), 20u);
  EXPECT_EQ(up.store.query_range(core::SeriesId{2}, {0, 1000}).size(), 20u);
  EXPECT_EQ(up.applies.load(), 6u);
}

TEST(RelayClientTest, ServerAppliesEachSourceSeqOnceInOrder) {
  Upstream up;
  RawPeer peer;
  ASSERT_TRUE(peer.connect(up.server->port()));

  const auto batch = make_batch(core::SeriesId{9}, 0, 4);
  // The next seq applies and advances the watermark.
  auto ack = peer.append(42, 1, batch);
  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(ack->applied);
  EXPECT_EQ(ack->watermark, 1u);
  // The same seq again is acked WITHOUT a second apply.
  ack = peer.append(42, 1, batch);
  ASSERT_TRUE(ack.has_value());
  EXPECT_FALSE(ack->applied);
  EXPECT_TRUE(ack->duplicate);
  EXPECT_EQ(up.applies.load(), 1u);
  // Above the next expected seq: refused un-applied, watermark unchanged —
  // the client must resend in order.
  ack = peer.append(42, 5, batch);
  ASSERT_TRUE(ack.has_value());
  EXPECT_FALSE(ack->applied);
  EXPECT_FALSE(ack->duplicate);
  EXPECT_EQ(ack->watermark, 1u);
  EXPECT_EQ(up.applies.load(), 1u);
  // seq 0 is invalid (seqs are 1-based): kError, nothing applied.
  EXPECT_FALSE(peer.append(42, 0, batch).has_value());
  // A second source has its own watermark.
  ack = peer.append(43, 1, batch);
  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(ack->applied);
  EXPECT_EQ(ack->watermark, 1u);
  const auto stats = up.server->stats();
  EXPECT_EQ(stats.relay_duplicates, 1u);
  EXPECT_EQ(stats.relay_window_rejects, 1u);
  EXPECT_EQ(stats.relay_sources, 2u);
}

TEST(RelayClientTest, AnAppendAboveAGapWaitsUntilItIsResentInOrder) {
  // The store drops a series' samples older than the newest it holds, so
  // applying seq 3 before seq 2 would silently lose seq 2's samples.
  Upstream up;
  RawPeer peer;
  ASSERT_TRUE(peer.connect(up.server->port()));
  const core::SeriesId series{9};
  ASSERT_TRUE(peer.append(42, 1, make_batch(series, 0, 4)).has_value());
  auto ack = peer.append(42, 3, make_batch(series, 200, 4));
  ASSERT_TRUE(ack.has_value());
  EXPECT_FALSE(ack->applied);
  EXPECT_FALSE(ack->duplicate);
  EXPECT_EQ(ack->watermark, 1u);
  EXPECT_EQ(up.applies.load(), 1u);
  EXPECT_TRUE(up.store.query_range(series, {200, 300}).empty());
  ack = peer.append(42, 2, make_batch(series, 100, 4));
  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(ack->applied);
  EXPECT_EQ(ack->watermark, 2u);
  // Resent after 2, seq 3 applies, and nothing was lost.
  ack = peer.append(42, 3, make_batch(series, 200, 4));
  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(ack->applied);
  EXPECT_EQ(ack->watermark, 3u);
  EXPECT_EQ(up.applies.load(), 3u);
  EXPECT_EQ(up.store.query_range(series, {0, 1000}).size(), 12u);
  EXPECT_EQ(up.server->stats().relay_window_rejects, 1u);
}

TEST(RelayClientTest, SeqsAtTheTopOfTheRangeNeverMoveTheWatermarkBack) {
  // Seqs come off the wire: a hello or append carrying 2^64-1 must not
  // wrap a comparison and move a watermark backwards.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  Upstream up;
  RawPeer peer;
  ASSERT_TRUE(peer.connect(up.server->port()));
  const auto batch = make_batch(core::SeriesId{9}, 0, 4);
  // Far above the watermark (0): refused, not applied.
  auto ack = peer.append(42, kMax, batch);
  ASSERT_TRUE(ack.has_value());
  EXPECT_FALSE(ack->applied);
  EXPECT_EQ(ack->watermark, 0u);
  // A hello resuming at 2^64-1 moves the watermark just below it, and the
  // top seq then applies.
  EXPECT_EQ(peer.hello(serve::encode_relay_hello({42, kMax})), kMax - 1);
  ack = peer.append(42, kMax, batch);
  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(ack->applied);
  EXPECT_EQ(ack->watermark, kMax);
  // At the top, every seq is a duplicate and no hello moves it.
  for (const std::uint64_t seq : {kMax, kMax - 1, std::uint64_t{1}}) {
    ack = peer.append(42, seq, batch);
    ASSERT_TRUE(ack.has_value());
    EXPECT_TRUE(ack->duplicate) << seq;
    EXPECT_EQ(ack->watermark, kMax) << seq;
  }
  for (const std::uint64_t resume : {kMax, kMax - 1, std::uint64_t{1}}) {
    EXPECT_EQ(peer.hello(serve::encode_relay_hello({42, resume})), kMax)
        << resume;
  }
  EXPECT_EQ(up.applies.load(), 1u);
}

TEST(RelayClientTest, CorruptPayloadIsRefusedNotAcked) {
  Upstream up;
  RawPeer peer;
  ASSERT_TRUE(peer.connect(up.server->port()));
  serve::RelayAppend msg;
  msg.source_id = 7;
  msg.seq = 1;
  msg.payload = {0xde, 0xad, 0xbe, 0xef};  // not a samples frame
  auto reply = peer.call(serve::MsgType::kRelayAppend,
                         serve::encode_relay_append(msg));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, serve::MsgType::kError);
  EXPECT_EQ(up.applies.load(), 0u);
  // The refused seq was NOT recorded: a valid retry of the same seq applies.
  auto ack = peer.append(7, 1, make_batch(core::SeriesId{1}, 0, 2));
  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(ack->applied);
}

TEST(RelayClientTest, ResumeHelloRaisesTheWatermarkPastSeqsThatNeverCome) {
  Upstream up;
  RawPeer peer;
  ASSERT_TRUE(peer.connect(up.server->port()));
  const auto batch = make_batch(core::SeriesId{9}, 0, 4);
  ASSERT_TRUE(peer.append(42, 1, batch).has_value());
  // seq 2 is refused (kError), so the client drops it; seq 3 is refused
  // above the hole, and the watermark would wait on 2 forever.
  serve::RelayAppend poison;
  poison.source_id = 42;
  poison.seq = 2;
  poison.payload = {0xde, 0xad};
  auto reply = peer.call(serve::MsgType::kRelayAppend,
                         serve::encode_relay_append(poison));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, serve::MsgType::kError);
  auto ack = peer.append(42, 3, batch);
  ASSERT_TRUE(ack.has_value());
  EXPECT_FALSE(ack->applied);
  EXPECT_EQ(ack->watermark, 1u);
  // The reconnecting client's first unacked seq is 3: the watermark moves
  // past the hole, and the resent seq 3 applies.
  EXPECT_EQ(peer.hello(serve::encode_relay_hello({42, 3})), 2u);
  ack = peer.append(42, 3, batch);
  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(ack->applied);
  EXPECT_EQ(ack->watermark, 3u);
  // A restarted node resumes past its seq lease: nothing below it will
  // come, so its first append lands in order instead of beyond the window.
  EXPECT_EQ(peer.hello(serve::encode_relay_hello({42, 70000})), 69999u);
  ack = peer.append(42, 70000, batch);
  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(ack->applied);
  EXPECT_EQ(ack->watermark, 70000u);
  // A resume point at or below the watermark moves nothing.
  EXPECT_EQ(peer.hello(serve::encode_relay_hello({42, 5})), 70000u);
  EXPECT_EQ(up.server->stats().relay_window_rejects, 1u);  // the first 3
}

TEST(RelayClientTest, LegacyHelloWithoutResumeSeqLeavesTheWatermarkAlone) {
  Upstream up;
  RawPeer peer;
  ASSERT_TRUE(peer.connect(up.server->port()));
  const auto batch = make_batch(core::SeriesId{9}, 0, 4);
  ASSERT_TRUE(peer.append(42, 1, batch).has_value());
  ASSERT_TRUE(peer.append(42, 3, batch).has_value());  // refused: gap at 2
  // The 8-byte hello older clients send: source id only.
  auto legacy = serve::encode_relay_hello({42, 0});
  legacy.resize(8);
  EXPECT_EQ(peer.hello(legacy), 1u);
  serve::RelayHello decoded;
  ASSERT_TRUE(serve::decode_relay_hello(legacy, decoded));
  EXPECT_EQ(decoded.source_id, 42u);
  EXPECT_EQ(decoded.resume_seq, 0u);
  // The gap still closes the ordinary way.
  auto ack = peer.append(42, 2, batch);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->watermark, 2u);
  ack = peer.append(42, 3, batch);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->watermark, 3u);
}

TEST(RelayClientTest, NodeCrashLeaseJumpDoesNotWedgeTheRelay) {
  Upstream up;
  const std::string state = "/tmp/hpcmon_relay_crash.state";
  const std::string crashed = state + ".crashed";
  std::filesystem::remove(state);
  RelayConfig rc;
  rc.upstream_port = up.server->port();
  rc.source_id = 13;
  rc.state_path = state;
  rc.backoff_ms = 1;
  {
    RelayClient client(rc);
    ASSERT_TRUE(client.start());
    client.submit(make_batch(core::SeriesId{6}, 0, 10));
    ASSERT_TRUE(client.drain_for(5000));
    // A crash leaves the state file as the last lease write left it, a
    // whole lease block past the last seq sent (a clean stop() shrinks it).
    std::filesystem::copy_file(
        state, crashed, std::filesystem::copy_options::overwrite_existing);
    client.stop();
  }
  std::filesystem::rename(crashed, state);
  {
    // The restarted node's first seq lies far beyond the server's dedupe
    // window; without the resume hello it is refused and resent forever.
    RelayClient client(rc);
    ASSERT_TRUE(client.start());
    client.submit(make_batch(core::SeriesId{6}, 1000, 10));
    EXPECT_TRUE(client.drain_for(5000));
    client.stop();
    EXPECT_EQ(client.stats().acked_batches, 1u);
    EXPECT_EQ(client.stats().resent_batches, 0u);
  }
  EXPECT_EQ(up.applies.load(), 2u);
  EXPECT_EQ(up.store.query_range(core::SeriesId{6}, {0, core::kHour}).size(),
            20u);
  EXPECT_EQ(up.server->stats().relay_window_rejects, 0u);
  std::filesystem::remove(state);
}

TEST(RelayClientTest, AggregatorRestartDoesNotWedgeTheRelay) {
  auto up = std::make_unique<Upstream>();
  const std::uint16_t port = up->server->port();
  RelayConfig rc;
  rc.upstream_port = port;
  rc.backoff_ms = 1;
  rc.backoff_max_ms = 20;
  RelayClient client(rc);
  ASSERT_TRUE(client.start());
  client.submit(make_batch(core::SeriesId{5}, 0, 10));
  ASSERT_TRUE(client.drain_for(5000));

  // The aggregator restarts on the same port with empty dedupe state: its
  // watermark is 0 and seq 1 will never be sent again. Without the resume
  // hello, seq 2 applies above that hole and is then acked as a duplicate
  // forever, and seq 3 is never sent.
  up.reset();
  serve::ServeConfig sc;
  sc.port = port;
  Upstream fresh(sc);
  client.submit(make_batch(core::SeriesId{5}, 1000, 10));
  client.submit(make_batch(core::SeriesId{5}, 2000, 10));
  EXPECT_TRUE(client.drain_for(5000));
  client.stop();
  EXPECT_EQ(fresh.applies.load(), 2u);
  EXPECT_EQ(
      fresh.store.query_range(core::SeriesId{5}, {0, core::kHour}).size(),
      20u);
  EXPECT_EQ(fresh.server->stats().relay_duplicates, 0u);
  EXPECT_EQ(client.watermark(), 3u);
}

/// The most refusals a client can meet in `ms` of wall time: one per
/// cooldown, each at least 0.9 x its scheduled length (the jitter),
/// doubling from 1 ms up to `cap_ms` (floored at 1 ms).
std::uint64_t max_refusals(double ms, int cap_ms) {
  std::uint64_t n = 1;
  double cooldown = 1.0;
  for (double t = 0.9 * cooldown; t <= ms; t += 0.9 * cooldown) {
    ++n;
    cooldown = std::min(2 * cooldown, static_cast<double>(std::max(1, cap_ms)));
  }
  return n;
}

// An upstream that cannot make appends durable refuses them; the client
// keeps each batch, pauses and resends one append at a time. backoff_ms = 0
// (and backoff_max_ms = 0) still pause at least 1 ms per refusal, so the
// client cannot spin on it, and every batch lands exactly once after.
TEST(RelayClientTest, RefusedAppendsBackOffEvenWithZeroBackoff) {
  for (const int cap_ms : {0, 16}) {
    Upstream up;
    up.refuse = true;
    RelayConfig rc;
    rc.upstream_port = up.server->port();
    rc.source_id = 21;
    rc.backoff_ms = 0;
    rc.backoff_max_ms = cap_ms;
    RelayClient client(rc);
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(client.start());
    for (int i = 0; i < 20; ++i) {
      client.submit(make_batch(core::SeriesId{8}, 1000 * i, 4));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    // Resends first: each follows a refusal, so refusals read later are at
    // least as many.
    const auto resent = client.stats().resent_batches;
    const auto refused = up.refusals.load();
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    std::printf("cap %d ms: %llu refusals, %llu appends resent in %.0f ms\n",
                cap_ms, static_cast<unsigned long long>(refused),
                static_cast<unsigned long long>(resent), elapsed_ms);
    EXPECT_GE(refused, 2u);
    EXPECT_LE(refused, max_refusals(elapsed_ms, cap_ms));
    EXPECT_LE(resent, refused);  // one probe per refusal, not a window
    EXPECT_EQ(up.applies.load(), 0u);

    up.refuse = false;
    ASSERT_TRUE(client.drain_for(5000));
    client.stop();
    EXPECT_EQ(up.applies.load(), 20u);
    EXPECT_EQ(up.store.query_range(core::SeriesId{8}, {0, core::kHour}).size(),
              80u);
    EXPECT_EQ(client.stats().rejected_batches, 0u);
    EXPECT_EQ(client.watermark(), 20u);
  }
}

TEST(RelayClientTest, InFlightStaysWithinTheSendWindowAndDrainsToZero) {
  Upstream up;
  up.hold = true;  // the first apply parks the server
  RelayConfig rc;
  rc.upstream_port = up.server->port();
  rc.batch_samples = 2;
  rc.queue_cap = 4096;
  rc.ack_timeout_ms = 10000;
  RelayClient client(rc);
  obs::ObsRegistry registry;
  client.attach_to(registry);
  const auto in_flight = [&] {
    return registry.snapshot().gauge("relay.in_flight");
  };
  constexpr double kWindow = RelayClient::kSendWindow;
  // Queued before the worker starts, so the first connect fills the window.
  constexpr int kSamples = 2 * 1000;
  ASSERT_EQ(client.submit(make_batch(core::SeriesId{8}, 0, kSamples)), 1000u);
  ASSERT_TRUE(client.start());
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  double most = 0;
  // With the server parked, the worker fills the window and stops there.
  while (in_flight() < kWindow && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int i = 0; i < 20; ++i) {
    most = std::max(most, in_flight());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(most, kWindow);
  EXPECT_EQ(client.pending(), 1000u);
  up.hold = false;
  while (client.pending() > 0 && std::chrono::steady_clock::now() < give_up) {
    most = std::max(most, in_flight());
  }
  ASSERT_TRUE(client.drain_for(5000));
  EXPECT_LE(most, kWindow);
  EXPECT_EQ(in_flight(), 0.0);
  client.stop();
  EXPECT_EQ(up.applies.load(), 1000u);
  EXPECT_EQ(up.store.query_range(core::SeriesId{8}, {0, core::kHour}).size(),
            static_cast<std::size_t>(kSamples));
  EXPECT_EQ(client.stats().resent_batches, 0u);
}

TEST(RelayClientTest, StopStaysBoundedWhenTheUpstreamStopsReading) {
  // The server accepts but stops reading (parked in an apply) while the
  // window holds more bytes than the socket buffers take. The worker's send
  // must give up after ack_timeout_ms, as an ack wait would, instead of
  // blocking it, and stop(), until the server resumes.
  Upstream up;
  up.hold = true;
  RelayConfig rc;
  rc.upstream_port = up.server->port();
  rc.batch_samples = 8192;
  rc.ack_timeout_ms = 200;
  rc.backoff_ms = 1;
  RelayClient client(rc);
  const auto batch = make_batch(core::SeriesId{1}, 0, 8192);  // ~160 KiB
  for (std::size_t i = 0; i < RelayClient::kSendWindow; ++i) {
    ASSERT_EQ(client.submit(batch), 1u);
  }
  ASSERT_TRUE(client.start());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Resume the server after 5 s at the latest, so a blocked stop() fails
  // the test instead of hanging it.
  std::mutex mu;
  std::condition_variable cv;
  bool stopped = false;
  std::thread releaser([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(5), [&] { return stopped; });
    up.hold = false;
  });
  const auto t0 = std::chrono::steady_clock::now();
  client.stop();
  const auto took = std::chrono::steady_clock::now() - t0;
  {
    std::lock_guard<std::mutex> lock(mu);
    stopped = true;
  }
  cv.notify_all();
  releaser.join();
  EXPECT_LT(took, std::chrono::seconds(2));
  EXPECT_GE(client.stats().disconnects, 1u);
}

TEST(RelayClientTest, HelloHealPreventsSeqReuseAfterStateLoss) {
  Upstream up;
  const std::string state = "/tmp/hpcmon_relay_heal.state";
  std::filesystem::remove(state);

  RelayConfig rc;
  rc.upstream_port = up.server->port();
  rc.source_id = 11;
  rc.state_path = state;
  {
    RelayClient client(rc);
    ASSERT_TRUE(client.start());
    client.submit(make_batch(core::SeriesId{3}, 0, 10));
    ASSERT_TRUE(client.drain_for(5000));
    client.stop();
    EXPECT_EQ(client.watermark(), 1u);
  }
  // The node loses its disk: the state file is gone, so a naive restart
  // would reuse seq 1 and the server would ack-as-duplicate, silently
  // discarding fresh data. The hello heal jumps next_seq past the server's
  // watermark instead.
  std::filesystem::remove(state);
  {
    RelayClient client(rc);
    ASSERT_TRUE(client.start());
    client.submit(make_batch(core::SeriesId{3}, 1000, 10));
    ASSERT_TRUE(client.drain_for(5000));
    client.stop();
    EXPECT_EQ(client.stats().acked_batches, 1u);
  }
  EXPECT_EQ(up.applies.load(), 2u);
  EXPECT_EQ(up.store.query_range(core::SeriesId{3}, {0, core::kHour}).size(),
            20u);
  EXPECT_EQ(up.server->stats().relay_duplicates, 0u);
}

TEST(RelayClientTest, StateFilePersistsSeqLeaseAcrossRestarts) {
  Upstream up;
  const std::string state = "/tmp/hpcmon_relay_lease.state";
  std::filesystem::remove(state);
  RelayConfig rc;
  rc.upstream_port = up.server->port();
  rc.source_id = 12;
  rc.state_path = state;
  {
    RelayClient client(rc);
    ASSERT_TRUE(client.start());
    client.submit(make_batch(core::SeriesId{4}, 0, 5));
    ASSERT_TRUE(client.drain_for(5000));
    client.stop();
  }
  ASSERT_TRUE(std::filesystem::exists(state));
  {
    // State survives: the restarted client resumes past the lease and the
    // loaded watermark, so fresh submits apply cleanly.
    RelayClient client(rc);
    ASSERT_TRUE(client.start());
    EXPECT_EQ(client.watermark(), 1u);  // loaded from the state file
    client.submit(make_batch(core::SeriesId{4}, 1000, 5));
    ASSERT_TRUE(client.drain_for(5000));
    client.stop();
    EXPECT_EQ(client.stats().rejected_batches, 0u);
  }
  EXPECT_EQ(up.applies.load(), 2u);
  std::filesystem::remove(state);
}

TEST(RelayClientTest, ShedsUnsentBulkUnderPressureNeverCritical) {
  // No server behind this port: nothing drains, so the queue bound governs.
  RelayConfig rc;
  rc.upstream_port = 1;  // connect() refused instantly
  rc.queue_cap = 4;
  rc.backoff_ms = 200;  // keep the worker mostly parked in backoff
  rc.backoff_max_ms = 400;
  rc.priority_of = [](core::SeriesId id) {
    return core::raw(id) == 1 ? core::Priority::kCritical : core::Priority::kBulk;
  };
  RelayClient client(rc);
  ASSERT_TRUE(client.start());

  core::SampleBatch bulk;
  for (int i = 0; i < 10; ++i) {
    bulk.samples.clear();
    bulk.samples.push_back({core::SeriesId{2}, i * 10, 1.0});
    client.submit(bulk);
  }
  // Bulk over the cap was shed (drop-oldest-unsent), never grown unbounded.
  EXPECT_LE(client.pending(), rc.queue_cap + 1);
  EXPECT_GT(client.stats().shed_batches, 0u);

  core::SampleBatch critical;
  for (int i = 0; i < 6; ++i) {
    critical.samples.clear();
    critical.samples.push_back({core::SeriesId{1}, i * 10, 2.0});
    EXPECT_EQ(client.submit(critical), 1u);  // never shed, cap or not
  }
  // Every critical entry is still pending (bulk was evicted to make room,
  // and critical overflows the cap rather than dropping).
  const auto stats = client.stats();
  EXPECT_GE(stats.pending, 6u);
  client.stop();
}

}  // namespace
}  // namespace hpcmon::relay
