// Request/response bodies of the serve protocol.
//
// Three request families (ROADMAP's "real network front door"):
//   * point reads  — kQueryRange / kAggregate / kDownsample / kLatest,
//     answered from the same ChunkSummary-backed engine in-process callers
//     use; results must be byte-identical to the in-process calls.
//   * streamed scans — kScanOpen hands out a cursor id; each kScanNext
//     returns one bounded page and the client asks for the next when IT is
//     ready (client-driven flow control over the wire).
//   * live subscriptions — kSubscribe binds a core::topic_match pattern over
//     series names; the reply lists the matched series, a kSnapshot push
//     delivers their latest values, then kDelta pushes follow from the
//     ingest tap. Snapshot and delta payloads are verbatim
//     transport::encode_samples() bytes — the documented codec, reused.
//
// Every encode_*/decode_* pair here is exercised from both sides of a real
// socket; decoders treat the body as adversarial (length-checked reads, no
// trust in counts).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/ids.hpp"
#include "core/priority.hpp"
#include "core/sample.hpp"
#include "core/time.hpp"
#include "rollup/reducer.hpp"
#include "store/summary.hpp"

namespace hpcmon::serve {

// -- Request bodies -----------------------------------------------------------

struct RangeReq {
  core::SeriesId series{0};
  core::TimeRange range;
};

struct AggregateReq {
  core::SeriesId series{0};
  core::TimeRange range;
  store::Agg agg = store::Agg::kMean;
};

struct DownsampleReq {
  core::SeriesId series{0};
  core::TimeRange range;
  core::Duration bucket = 0;
  store::Agg agg = store::Agg::kMean;
};

struct ScanOpenReq {
  core::SeriesId series{0};
  core::TimeRange range;
  /// Max points per kScanNext page (server clamps to >= 1).
  std::uint32_t page_points = 512;
};

struct SubscribeReq {
  /// core::topic_match pattern over "metric.name@component" series names.
  std::string pattern;
};

std::vector<std::uint8_t> encode_range_req(const RangeReq& r);
bool decode_range_req(const std::vector<std::uint8_t>& body, RangeReq& out);

std::vector<std::uint8_t> encode_aggregate_req(const AggregateReq& r);
bool decode_aggregate_req(const std::vector<std::uint8_t>& body,
                          AggregateReq& out);

std::vector<std::uint8_t> encode_downsample_req(const DownsampleReq& r);
bool decode_downsample_req(const std::vector<std::uint8_t>& body,
                           DownsampleReq& out);

std::vector<std::uint8_t> encode_scan_open_req(const ScanOpenReq& r);
bool decode_scan_open_req(const std::vector<std::uint8_t>& body,
                          ScanOpenReq& out);

std::vector<std::uint8_t> encode_subscribe_req(const SubscribeReq& r);
bool decode_subscribe_req(const std::vector<std::uint8_t>& body,
                          SubscribeReq& out);

/// kRelayHello body: a relay client announces its durable source identity;
/// the kOk reply carries a RelayAck whose watermark tells the client where
/// to resume (every seq <= watermark is durably applied server-side).
/// `resume_seq` is the client's first unacked seq (its next seq when nothing
/// is unacked): the client holds no seq below it, so the server raises the
/// source's watermark to resume_seq - 1 rather than wait on seqs that will
/// never arrive. It trails the source id on the wire; a legacy 8-byte hello
/// decodes as resume_seq 0, which moves nothing.
struct RelayHello {
  std::uint64_t source_id = 0;
  std::uint64_t resume_seq = 0;
};

/// kRelayAppend body: one at-least-once append. `payload` is verbatim
/// transport::encode_samples() bytes — the same codec the in-process router
/// moves — and `priority` carries the batch's class across the hop so the
/// aggregator's storm-mode shedding still sees it. `seq` is assigned
/// contiguously per source; the server applies seqs strictly in order, each
/// (source_id, seq) once: only the seq just above the watermark applies.
struct RelayAppend {
  std::uint64_t source_id = 0;
  std::uint64_t seq = 0;
  core::Priority priority = core::Priority::kStandard;
  std::vector<std::uint8_t> payload;
};

/// kOk reply to both relay requests: the server's applied watermark (highest
/// seq S such that every seq <= S has been applied). `applied` reports what
/// happened to THIS append: freshly applied, or acked-without-apply because
/// it was a duplicate (at or below the watermark) or above the next expected
/// seq (resend, in order, from the first seq the watermark does not cover).
struct RelayAck {
  std::uint64_t watermark = 0;
  bool applied = false;
  bool duplicate = false;
};

std::vector<std::uint8_t> encode_relay_hello(const RelayHello& h);
bool decode_relay_hello(const std::vector<std::uint8_t>& body, RelayHello& out);

std::vector<std::uint8_t> encode_relay_append(const RelayAppend& a);
bool decode_relay_append(const std::vector<std::uint8_t>& body,
                         RelayAppend& out);

std::vector<std::uint8_t> encode_relay_ack(const RelayAck& a);
bool decode_relay_ack(const std::vector<std::uint8_t>& body, RelayAck& out);

/// kRollupQuery / kRollupSub body: one (component, metric) rollup level,
/// addressed by NAME — remote dashboards ask for "c3-0" / "node.cpu_util"
/// without holding the server's id space.
struct RollupReq {
  std::string component;  // registry cname, e.g. "system", "c3-0"
  std::string metric;     // e.g. "node.cpu_util"
};

/// One rollup level's canonical accumulator on the wire (kRollupQuery
/// reply). `found` distinguishes "level absent/empty" from a zero stat.
struct RollupStatMsg {
  bool found = false;
  rollup::RollupStat stat;  // meaningful only when found
};

/// kRollupSub reply: the subscription id plus the level's current stat, so
/// the client starts from a consistent value before deltas flow.
struct RollupSubAck {
  std::uint32_t sub_id = 0;
  RollupStatMsg current;
};

/// kRollupDelta push body (request id = owning sub id): self-describing so
/// a logging client can tail several levels without a lookaside table.
struct RollupDelta {
  std::string component;
  std::string metric;
  rollup::RollupStat stat;
};

std::vector<std::uint8_t> encode_rollup_req(const RollupReq& r);
bool decode_rollup_req(const std::vector<std::uint8_t>& body, RollupReq& out);

std::vector<std::uint8_t> encode_rollup_stat(const RollupStatMsg& m);
bool decode_rollup_stat(const std::vector<std::uint8_t>& body,
                        RollupStatMsg& out);

std::vector<std::uint8_t> encode_rollup_sub_ack(const RollupSubAck& a);
bool decode_rollup_sub_ack(const std::vector<std::uint8_t>& body,
                           RollupSubAck& out);

std::vector<std::uint8_t> encode_rollup_delta(const RollupDelta& d);
bool decode_rollup_delta(const std::vector<std::uint8_t>& body,
                         RollupDelta& out);

/// Bare u32 body (kScanNext/kScanClose cursor id, kUnsubscribe sub id).
std::vector<std::uint8_t> encode_u32(std::uint32_t v);
bool decode_u32(const std::vector<std::uint8_t>& body, std::uint32_t& out);

/// kSetMode body: the degradation-mode override, or release when nullopt.
std::vector<std::uint8_t> encode_set_mode(
    std::optional<core::DegradationMode> mode);
bool decode_set_mode(const std::vector<std::uint8_t>& body,
                     std::optional<core::DegradationMode>& out);

// -- Response bodies ----------------------------------------------------------

/// Time-ordered points (kQueryRange / kDownsample reply, scan page tail).
std::vector<std::uint8_t> encode_points(
    const std::vector<core::TimedValue>& pts);
bool decode_points(const std::vector<std::uint8_t>& body,
                   std::vector<core::TimedValue>& out);

/// Optional scalar (kAggregate reply; kLatest packs time+value when present).
std::vector<std::uint8_t> encode_scalar(std::optional<double> v);
bool decode_scalar(const std::vector<std::uint8_t>& body,
                   std::optional<double>& out);

std::vector<std::uint8_t> encode_latest(std::optional<core::TimedValue> v);
bool decode_latest(const std::vector<std::uint8_t>& body,
                   std::optional<core::TimedValue>& out);

/// kScanNext reply: `done` marks the cursor exhausted (and auto-closed).
struct ScanPage {
  bool done = false;
  std::vector<core::TimedValue> points;
};
std::vector<std::uint8_t> encode_scan_page(const ScanPage& p);
bool decode_scan_page(const std::vector<std::uint8_t>& body, ScanPage& out);

/// kSubscribe reply: the subscription id plus every matched series at
/// subscribe time (id -> name so the client can label pushed samples).
struct SubscribeAck {
  std::uint32_t sub_id = 0;
  std::vector<std::pair<core::SeriesId, std::string>> matched;
};
std::vector<std::uint8_t> encode_subscribe_ack(const SubscribeAck& a);
bool decode_subscribe_ack(const std::vector<std::uint8_t>& body,
                          SubscribeAck& out);

/// kListConns reply row.
struct ConnInfo {
  std::uint32_t id = 0;
  std::uint64_t requests = 0;
  std::uint64_t tx_bytes = 0;
  std::uint32_t egress_depth = 0;
  std::uint32_t subscriptions = 0;
};
std::vector<std::uint8_t> encode_conn_list(const std::vector<ConnInfo>& conns);
bool decode_conn_list(const std::vector<std::uint8_t>& body,
                      std::vector<ConnInfo>& out);

/// kError reply / kStatus reply body: one length-prefixed string.
std::vector<std::uint8_t> encode_string(const std::string& s);
bool decode_string(const std::vector<std::uint8_t>& body, std::string& out);

}  // namespace hpcmon::serve
