#include "serve/protocol.hpp"

#include "transport/codec.hpp"

namespace hpcmon::serve {

using transport::ByteReader;
using transport::ByteWriter;

namespace {
// Adversarial-count guard: a decoder never reserves more entries than the
// remaining bytes could possibly hold (smallest element is 8 bytes), so a
// hostile count cannot force a large allocation before the underrun check.
std::size_t bounded_reserve(std::uint32_t count, std::size_t remaining,
                            std::size_t min_elem_bytes) {
  const std::size_t possible = remaining / min_elem_bytes;
  return std::min<std::size_t>(count, possible);
}
}  // namespace

std::vector<std::uint8_t> encode_range_req(const RangeReq& r) {
  std::vector<std::uint8_t> body;
  ByteWriter w(body);
  w.u32(core::raw(r.series));
  w.i64(r.range.begin);
  w.i64(r.range.end);
  return body;
}

bool decode_range_req(const std::vector<std::uint8_t>& body, RangeReq& out) {
  ByteReader r(body);
  std::uint32_t series = 0;
  if (!r.u32(series) || !r.i64(out.range.begin) || !r.i64(out.range.end)) {
    return false;
  }
  out.series = core::SeriesId{series};
  return true;
}

std::vector<std::uint8_t> encode_aggregate_req(const AggregateReq& r) {
  std::vector<std::uint8_t> body;
  ByteWriter w(body);
  w.u32(core::raw(r.series));
  w.i64(r.range.begin);
  w.i64(r.range.end);
  w.u8(static_cast<std::uint8_t>(r.agg));
  return body;
}

bool decode_aggregate_req(const std::vector<std::uint8_t>& body,
                          AggregateReq& out) {
  ByteReader r(body);
  std::uint32_t series = 0;
  std::uint8_t agg = 0;
  if (!r.u32(series) || !r.i64(out.range.begin) || !r.i64(out.range.end) ||
      !r.u8(agg)) {
    return false;
  }
  if (agg > static_cast<std::uint8_t>(store::Agg::kLast)) return false;
  out.series = core::SeriesId{series};
  out.agg = static_cast<store::Agg>(agg);
  return true;
}

std::vector<std::uint8_t> encode_downsample_req(const DownsampleReq& r) {
  std::vector<std::uint8_t> body;
  ByteWriter w(body);
  w.u32(core::raw(r.series));
  w.i64(r.range.begin);
  w.i64(r.range.end);
  w.i64(r.bucket);
  w.u8(static_cast<std::uint8_t>(r.agg));
  return body;
}

bool decode_downsample_req(const std::vector<std::uint8_t>& body,
                           DownsampleReq& out) {
  ByteReader r(body);
  std::uint32_t series = 0;
  std::uint8_t agg = 0;
  if (!r.u32(series) || !r.i64(out.range.begin) || !r.i64(out.range.end) ||
      !r.i64(out.bucket) || !r.u8(agg)) {
    return false;
  }
  if (agg > static_cast<std::uint8_t>(store::Agg::kLast)) return false;
  if (out.bucket <= 0) return false;
  out.series = core::SeriesId{series};
  out.agg = static_cast<store::Agg>(agg);
  return true;
}

std::vector<std::uint8_t> encode_scan_open_req(const ScanOpenReq& r) {
  std::vector<std::uint8_t> body;
  ByteWriter w(body);
  w.u32(core::raw(r.series));
  w.i64(r.range.begin);
  w.i64(r.range.end);
  w.u32(r.page_points);
  return body;
}

bool decode_scan_open_req(const std::vector<std::uint8_t>& body,
                          ScanOpenReq& out) {
  ByteReader r(body);
  std::uint32_t series = 0;
  if (!r.u32(series) || !r.i64(out.range.begin) || !r.i64(out.range.end) ||
      !r.u32(out.page_points)) {
    return false;
  }
  out.series = core::SeriesId{series};
  return true;
}

std::vector<std::uint8_t> encode_subscribe_req(const SubscribeReq& r) {
  std::vector<std::uint8_t> body;
  ByteWriter w(body);
  w.str(r.pattern);
  return body;
}

bool decode_subscribe_req(const std::vector<std::uint8_t>& body,
                          SubscribeReq& out) {
  ByteReader r(body);
  return r.str(out.pattern);
}

std::vector<std::uint8_t> encode_relay_hello(const RelayHello& h) {
  std::vector<std::uint8_t> body;
  ByteWriter w(body);
  w.u64(h.source_id);
  w.u64(h.resume_seq);
  return body;
}

bool decode_relay_hello(const std::vector<std::uint8_t>& body,
                        RelayHello& out) {
  ByteReader r(body);
  if (!r.u64(out.source_id)) return false;
  out.resume_seq = 0;
  if (r.remaining() >= 8) r.u64(out.resume_seq);
  return true;
}

std::vector<std::uint8_t> encode_relay_append(const RelayAppend& a) {
  std::vector<std::uint8_t> body;
  ByteWriter w(body);
  w.u64(a.source_id);
  w.u64(a.seq);
  w.u8(static_cast<std::uint8_t>(a.priority));
  w.u32(static_cast<std::uint32_t>(a.payload.size()));
  body.insert(body.end(), a.payload.begin(), a.payload.end());
  return body;
}

bool decode_relay_append(const std::vector<std::uint8_t>& body,
                         RelayAppend& out) {
  ByteReader r(body);
  std::uint8_t pri = 0;
  std::uint32_t len = 0;
  if (!r.u64(out.source_id) || !r.u64(out.seq) || !r.u8(pri) || !r.u32(len)) {
    return false;
  }
  if (pri >= core::kPriorityClasses) return false;
  if (len != r.remaining()) return false;  // exactly the declared payload
  out.priority = static_cast<core::Priority>(pri);
  out.payload.assign(body.end() - len, body.end());
  return true;
}

std::vector<std::uint8_t> encode_relay_ack(const RelayAck& a) {
  std::vector<std::uint8_t> body;
  ByteWriter w(body);
  w.u64(a.watermark);
  w.u8(a.applied ? 1 : 0);
  w.u8(a.duplicate ? 1 : 0);
  return body;
}

bool decode_relay_ack(const std::vector<std::uint8_t>& body, RelayAck& out) {
  ByteReader r(body);
  std::uint8_t applied = 0;
  std::uint8_t duplicate = 0;
  if (!r.u64(out.watermark) || !r.u8(applied) || !r.u8(duplicate)) {
    return false;
  }
  out.applied = applied != 0;
  out.duplicate = duplicate != 0;
  return true;
}

namespace {
void write_stat(ByteWriter& w, const rollup::RollupStat& s) {
  w.u64(s.count);
  w.f64(s.sum);
  w.f64(s.min);
  w.f64(s.max);
  w.f64(s.last);
  w.i64(s.last_time);
}

bool read_stat(ByteReader& r, rollup::RollupStat& s) {
  return r.u64(s.count) && r.f64(s.sum) && r.f64(s.min) && r.f64(s.max) &&
         r.f64(s.last) && r.i64(s.last_time);
}
}  // namespace

std::vector<std::uint8_t> encode_rollup_req(const RollupReq& req) {
  std::vector<std::uint8_t> body;
  ByteWriter w(body);
  w.str(req.component);
  w.str(req.metric);
  return body;
}

bool decode_rollup_req(const std::vector<std::uint8_t>& body, RollupReq& out) {
  ByteReader r(body);
  return r.str(out.component) && r.str(out.metric) && r.remaining() == 0;
}

std::vector<std::uint8_t> encode_rollup_stat(const RollupStatMsg& m) {
  std::vector<std::uint8_t> body;
  ByteWriter w(body);
  w.u8(m.found ? 1 : 0);
  if (m.found) write_stat(w, m.stat);
  return body;
}

bool decode_rollup_stat(const std::vector<std::uint8_t>& body,
                        RollupStatMsg& out) {
  ByteReader r(body);
  std::uint8_t found = 0;
  if (!r.u8(found)) return false;
  out.found = found != 0;
  out.stat = rollup::RollupStat{};
  if (out.found && !read_stat(r, out.stat)) return false;
  return r.remaining() == 0;
}

std::vector<std::uint8_t> encode_rollup_sub_ack(const RollupSubAck& a) {
  std::vector<std::uint8_t> body;
  ByteWriter w(body);
  w.u32(a.sub_id);
  w.u8(a.current.found ? 1 : 0);
  if (a.current.found) write_stat(w, a.current.stat);
  return body;
}

bool decode_rollup_sub_ack(const std::vector<std::uint8_t>& body,
                           RollupSubAck& out) {
  ByteReader r(body);
  std::uint8_t found = 0;
  if (!r.u32(out.sub_id) || !r.u8(found)) return false;
  out.current.found = found != 0;
  out.current.stat = rollup::RollupStat{};
  if (out.current.found && !read_stat(r, out.current.stat)) return false;
  return r.remaining() == 0;
}

std::vector<std::uint8_t> encode_rollup_delta(const RollupDelta& d) {
  std::vector<std::uint8_t> body;
  ByteWriter w(body);
  w.str(d.component);
  w.str(d.metric);
  write_stat(w, d.stat);
  return body;
}

bool decode_rollup_delta(const std::vector<std::uint8_t>& body,
                         RollupDelta& out) {
  ByteReader r(body);
  return r.str(out.component) && r.str(out.metric) && read_stat(r, out.stat) &&
         r.remaining() == 0;
}

std::vector<std::uint8_t> encode_u32(std::uint32_t v) {
  std::vector<std::uint8_t> body;
  ByteWriter w(body);
  w.u32(v);
  return body;
}

bool decode_u32(const std::vector<std::uint8_t>& body, std::uint32_t& out) {
  ByteReader r(body);
  return r.u32(out);
}

std::vector<std::uint8_t> encode_set_mode(
    std::optional<core::DegradationMode> mode) {
  std::vector<std::uint8_t> body;
  ByteWriter w(body);
  w.u8(mode.has_value() ? 1 : 0);
  w.u8(mode.has_value() ? static_cast<std::uint8_t>(*mode) : 0);
  return body;
}

bool decode_set_mode(const std::vector<std::uint8_t>& body,
                     std::optional<core::DegradationMode>& out) {
  ByteReader r(body);
  std::uint8_t has = 0;
  std::uint8_t mode = 0;
  if (!r.u8(has) || !r.u8(mode)) return false;
  if (has == 0) {
    out = std::nullopt;
    return true;
  }
  if (mode >= core::kDegradationModes) return false;
  out = static_cast<core::DegradationMode>(mode);
  return true;
}

std::vector<std::uint8_t> encode_points(
    const std::vector<core::TimedValue>& pts) {
  std::vector<std::uint8_t> body;
  ByteWriter w(body);
  w.u32(static_cast<std::uint32_t>(pts.size()));
  for (const auto& p : pts) {
    w.i64(p.time);
    w.f64(p.value);
  }
  return body;
}

bool decode_points(const std::vector<std::uint8_t>& body,
                   std::vector<core::TimedValue>& out) {
  ByteReader r(body);
  std::uint32_t count = 0;
  if (!r.u32(count)) return false;
  out.clear();
  out.reserve(bounded_reserve(count, r.remaining(), 16));
  for (std::uint32_t i = 0; i < count; ++i) {
    core::TimedValue p;
    if (!r.i64(p.time) || !r.f64(p.value)) return false;
    out.push_back(p);
  }
  return true;
}

std::vector<std::uint8_t> encode_scalar(std::optional<double> v) {
  std::vector<std::uint8_t> body;
  ByteWriter w(body);
  w.u8(v.has_value() ? 1 : 0);
  w.f64(v.value_or(0.0));
  return body;
}

bool decode_scalar(const std::vector<std::uint8_t>& body,
                   std::optional<double>& out) {
  ByteReader r(body);
  std::uint8_t has = 0;
  double v = 0.0;
  if (!r.u8(has) || !r.f64(v)) return false;
  out = has != 0 ? std::optional<double>(v) : std::nullopt;
  return true;
}

std::vector<std::uint8_t> encode_latest(std::optional<core::TimedValue> v) {
  std::vector<std::uint8_t> body;
  ByteWriter w(body);
  w.u8(v.has_value() ? 1 : 0);
  w.i64(v ? v->time : 0);
  w.f64(v ? v->value : 0.0);
  return body;
}

bool decode_latest(const std::vector<std::uint8_t>& body,
                   std::optional<core::TimedValue>& out) {
  ByteReader r(body);
  std::uint8_t has = 0;
  core::TimedValue v;
  if (!r.u8(has) || !r.i64(v.time) || !r.f64(v.value)) return false;
  out = has != 0 ? std::optional<core::TimedValue>(v) : std::nullopt;
  return true;
}

std::vector<std::uint8_t> encode_scan_page(const ScanPage& p) {
  std::vector<std::uint8_t> body;
  ByteWriter w(body);
  w.u8(p.done ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(p.points.size()));
  for (const auto& pt : p.points) {
    w.i64(pt.time);
    w.f64(pt.value);
  }
  return body;
}

bool decode_scan_page(const std::vector<std::uint8_t>& body, ScanPage& out) {
  ByteReader r(body);
  std::uint8_t done = 0;
  std::uint32_t count = 0;
  if (!r.u8(done) || !r.u32(count)) return false;
  out.done = done != 0;
  out.points.clear();
  out.points.reserve(bounded_reserve(count, r.remaining(), 16));
  for (std::uint32_t i = 0; i < count; ++i) {
    core::TimedValue p;
    if (!r.i64(p.time) || !r.f64(p.value)) return false;
    out.points.push_back(p);
  }
  return true;
}

std::vector<std::uint8_t> encode_subscribe_ack(const SubscribeAck& a) {
  std::vector<std::uint8_t> body;
  ByteWriter w(body);
  w.u32(a.sub_id);
  w.u32(static_cast<std::uint32_t>(a.matched.size()));
  for (const auto& [id, name] : a.matched) {
    w.u32(core::raw(id));
    w.str(name);
  }
  return body;
}

bool decode_subscribe_ack(const std::vector<std::uint8_t>& body,
                          SubscribeAck& out) {
  ByteReader r(body);
  std::uint32_t count = 0;
  if (!r.u32(out.sub_id) || !r.u32(count)) return false;
  out.matched.clear();
  out.matched.reserve(bounded_reserve(count, r.remaining(), 6));
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t id = 0;
    std::string name;
    if (!r.u32(id) || !r.str(name)) return false;
    out.matched.emplace_back(core::SeriesId{id}, std::move(name));
  }
  return true;
}

std::vector<std::uint8_t> encode_conn_list(const std::vector<ConnInfo>& conns) {
  std::vector<std::uint8_t> body;
  ByteWriter w(body);
  w.u32(static_cast<std::uint32_t>(conns.size()));
  for (const auto& c : conns) {
    w.u32(c.id);
    w.u64(c.requests);
    w.u64(c.tx_bytes);
    w.u32(c.egress_depth);
    w.u32(c.subscriptions);
  }
  return body;
}

bool decode_conn_list(const std::vector<std::uint8_t>& body,
                      std::vector<ConnInfo>& out) {
  ByteReader r(body);
  std::uint32_t count = 0;
  if (!r.u32(count)) return false;
  out.clear();
  out.reserve(bounded_reserve(count, r.remaining(), 28));
  for (std::uint32_t i = 0; i < count; ++i) {
    ConnInfo c;
    if (!r.u32(c.id) || !r.u64(c.requests) || !r.u64(c.tx_bytes) ||
        !r.u32(c.egress_depth) || !r.u32(c.subscriptions)) {
      return false;
    }
    out.push_back(c);
  }
  return true;
}

std::vector<std::uint8_t> encode_string(const std::string& s) {
  std::vector<std::uint8_t> body;
  ByteWriter w(body);
  w.str(s);
  return body;
}

bool decode_string(const std::vector<std::uint8_t>& body, std::string& out) {
  ByteReader r(body);
  return r.str(out);
}

}  // namespace hpcmon::serve
