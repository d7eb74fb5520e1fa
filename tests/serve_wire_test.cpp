// Serve wire framing under adversarial socket input: truncated frames,
// oversized declared lengths (rejected by the byte cap, no unbounded
// allocation), and frames split across arbitrary read() boundaries.
#include "serve/wire.hpp"

#include <gtest/gtest.h>

#include "serve/protocol.hpp"

namespace hpcmon::serve {
namespace {

std::vector<std::uint8_t> frame_bytes(MsgType type, std::uint32_t id,
                                      const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> out;
  append_wire_frame(out, type, id, body);
  return out;
}

TEST(WireAssembler, RoundTripsOneFrame) {
  const auto bytes = frame_bytes(MsgType::kQueryRange, 42, {1, 2, 3, 4});
  WireAssembler a;
  ASSERT_TRUE(a.feed(bytes.data(), bytes.size()));
  auto frame = a.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MsgType::kQueryRange);
  EXPECT_EQ(frame->request_id, 42u);
  EXPECT_EQ(frame->body, (std::vector<std::uint8_t>{1, 2, 3, 4}));
  EXPECT_FALSE(a.next().has_value());
  EXPECT_EQ(a.buffered(), 0u);
}

TEST(WireAssembler, ReassemblesAcrossArbitrarySplits) {
  // Three frames, fed one byte at a time — the cruellest fragmentation a
  // socket can produce.
  std::vector<std::uint8_t> stream;
  for (std::uint32_t id = 1; id <= 3; ++id) {
    const auto f = frame_bytes(MsgType::kPing, id,
                               std::vector<std::uint8_t>(id * 7, 0xAB));
    stream.insert(stream.end(), f.begin(), f.end());
  }
  WireAssembler a;
  std::vector<WireFrame> got;
  for (const std::uint8_t b : stream) {
    ASSERT_TRUE(a.feed(&b, 1));
    while (auto f = a.next()) got.push_back(std::move(*f));
  }
  ASSERT_EQ(got.size(), 3u);
  for (std::uint32_t id = 1; id <= 3; ++id) {
    EXPECT_EQ(got[id - 1].request_id, id);
    EXPECT_EQ(got[id - 1].body.size(), id * 7u);
  }
}

TEST(WireAssembler, TruncatedFrameStaysPending) {
  auto bytes = frame_bytes(MsgType::kStatus, 7, {9, 9, 9});
  bytes.pop_back();  // lose the last body byte
  WireAssembler a;
  ASSERT_TRUE(a.feed(bytes.data(), bytes.size()));
  EXPECT_FALSE(a.next().has_value());  // incomplete, not an error
  EXPECT_FALSE(a.errored());
  const std::uint8_t tail = 9;
  ASSERT_TRUE(a.feed(&tail, 1));
  EXPECT_TRUE(a.next().has_value());
}

TEST(WireAssembler, OversizedDeclaredLengthIsARejectionNotAnAllocation) {
  // Header declaring a 4 GiB-ish frame: must fail the moment the length is
  // readable, buffering nothing beyond the header.
  std::vector<std::uint8_t> evil = {0xFF, 0xFF, 0xFF, 0xFE};
  WireAssembler a;
  a.feed(evil.data(), evil.size());
  EXPECT_FALSE(a.next().has_value());
  EXPECT_TRUE(a.errored());
  EXPECT_EQ(a.buffered(), 0u);  // cleared on error, not held
  // Sticky: further feeds are refused.
  const std::uint8_t more = 0;
  EXPECT_FALSE(a.feed(&more, 1));
}

TEST(WireAssembler, CustomCapApplies) {
  WireAssembler a(/*max_frame_bytes=*/64);
  const auto ok = frame_bytes(MsgType::kPing, 1, std::vector<std::uint8_t>(32));
  ASSERT_TRUE(a.feed(ok.data(), ok.size()));
  EXPECT_TRUE(a.next().has_value());
  const auto big =
      frame_bytes(MsgType::kPing, 2, std::vector<std::uint8_t>(128));
  a.feed(big.data(), big.size());
  EXPECT_FALSE(a.next().has_value());
  EXPECT_TRUE(a.errored());
}

TEST(WireAssembler, UndersizedDeclaredLengthIsAnError) {
  // length < type+id (5) cannot frame anything.
  const std::vector<std::uint8_t> evil = {3, 0, 0, 0, 1, 0, 0};
  WireAssembler a;
  a.feed(evil.data(), evil.size());
  EXPECT_FALSE(a.next().has_value());
  EXPECT_TRUE(a.errored());
}

TEST(ProtocolDecoders, HostileCountsCannotForceAllocation) {
  // A points body declaring 4 billion entries but carrying 8 bytes: the
  // decoder must fail on underrun without reserving for the declared count.
  std::vector<std::uint8_t> body = {0xFF, 0xFF, 0xFF, 0xFF,  // count
                                    1,    2,    3,    4,    5, 6, 7, 8};
  std::vector<core::TimedValue> points;
  EXPECT_FALSE(decode_points(body, points));
  ScanPage page;
  std::vector<std::uint8_t> page_body = {1, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0};
  EXPECT_FALSE(decode_scan_page(page_body, page));
  SubscribeAck ack;
  std::vector<std::uint8_t> ack_body = {1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_FALSE(decode_subscribe_ack(ack_body, ack));
  std::vector<ConnInfo> conns;
  std::vector<std::uint8_t> conn_body = {0xFF, 0xFF, 0xFF, 0xFF, 1};
  EXPECT_FALSE(decode_conn_list(conn_body, conns));
}

TEST(ProtocolDecoders, RejectOutOfRangeEnums) {
  AggregateReq agg_req;
  agg_req.series = core::SeriesId{3};
  agg_req.range = {0, 100};
  agg_req.agg = store::Agg::kMax;
  auto body = encode_aggregate_req(agg_req);
  body.back() = 250;  // not a store::Agg
  AggregateReq decoded;
  EXPECT_FALSE(decode_aggregate_req(body, decoded));

  auto mode_body = encode_set_mode(core::DegradationMode::kQuarantine);
  mode_body.back() = 17;  // not a DegradationMode
  std::optional<core::DegradationMode> mode;
  EXPECT_FALSE(decode_set_mode(mode_body, mode));

  DownsampleReq ds;
  ds.series = core::SeriesId{1};
  ds.range = {0, 100};
  ds.bucket = 0;  // zero-width bucket would divide by zero downstream
  ds.agg = store::Agg::kMean;
  DownsampleReq ds_out;
  EXPECT_FALSE(decode_downsample_req(encode_downsample_req(ds), ds_out));
}

TEST(ProtocolCodecs, RoundTripEveryBody) {
  RangeReq rr{core::SeriesId{9}, {-5, 5000}};
  RangeReq rr2;
  ASSERT_TRUE(decode_range_req(encode_range_req(rr), rr2));
  EXPECT_EQ(rr2.series, rr.series);
  EXPECT_EQ(rr2.range, rr.range);

  ScanOpenReq so{core::SeriesId{2}, {10, 20}, 77};
  ScanOpenReq so2;
  ASSERT_TRUE(decode_scan_open_req(encode_scan_open_req(so), so2));
  EXPECT_EQ(so2.page_points, 77u);

  SubscribeAck ack;
  ack.sub_id = 5;
  ack.matched = {{core::SeriesId{1}, "node.power_w@n0"},
                 {core::SeriesId{2}, "node.power_w@n1"}};
  SubscribeAck ack2;
  ASSERT_TRUE(decode_subscribe_ack(encode_subscribe_ack(ack), ack2));
  EXPECT_EQ(ack2.sub_id, 5u);
  ASSERT_EQ(ack2.matched.size(), 2u);
  EXPECT_EQ(ack2.matched[1].second, "node.power_w@n1");

  ScanPage page;
  page.done = true;
  page.points = {{1, 1.5}, {2, 2.5}};
  ScanPage page2;
  ASSERT_TRUE(decode_scan_page(encode_scan_page(page), page2));
  EXPECT_TRUE(page2.done);
  EXPECT_EQ(page2.points, page.points);

  std::optional<core::TimedValue> latest2;
  ASSERT_TRUE(decode_latest(encode_latest(core::TimedValue{7, 3.25}), latest2));
  ASSERT_TRUE(latest2.has_value());
  EXPECT_EQ(latest2->time, 7);
  EXPECT_EQ(latest2->value, 3.25);
  ASSERT_TRUE(decode_latest(encode_latest(std::nullopt), latest2));
  EXPECT_FALSE(latest2.has_value());

  std::vector<ConnInfo> conns = {{1, 10, 100, 2, 1}, {2, 20, 200, 0, 0}};
  std::vector<ConnInfo> conns2;
  ASSERT_TRUE(decode_conn_list(encode_conn_list(conns), conns2));
  ASSERT_EQ(conns2.size(), 2u);
  EXPECT_EQ(conns2[0].tx_bytes, 100u);
  EXPECT_EQ(conns2[1].id, 2u);
}

TEST(ProtocolCodecs, RelayHelloCarriesAResumeSeqAndReadsLegacyBodies) {
  RelayHello hello{42, 9001};
  RelayHello out;
  ASSERT_TRUE(decode_relay_hello(encode_relay_hello(hello), out));
  EXPECT_EQ(out.source_id, 42u);
  EXPECT_EQ(out.resume_seq, 9001u);
  // The resume seq trails the source id, so the first 8 bytes are the
  // legacy hello, and a legacy hello decodes with resume_seq 0.
  auto legacy = encode_relay_hello(hello);
  legacy.resize(8);
  ASSERT_TRUE(decode_relay_hello(legacy, out));
  EXPECT_EQ(out.source_id, 42u);
  EXPECT_EQ(out.resume_seq, 0u);
  legacy.resize(7);
  EXPECT_FALSE(decode_relay_hello(legacy, out));
}

}  // namespace
}  // namespace hpcmon::serve
