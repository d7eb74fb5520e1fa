#include "transport/codec.hpp"

#include <bit>
#include <cstdio>
#include <cstring>

#include "core/strings.hpp"

namespace hpcmon::transport {

using core::LogEvent;
using core::Result;
using core::Sample;
using core::SampleBatch;

Frame encode_samples(const SampleBatch& batch) {
  return encode_samples(batch.sweep_time, batch.origin, batch.samples);
}

Frame encode_samples(core::TimePoint sweep_time, core::ComponentId origin,
                     std::span<const Sample> samples) {
  Frame f;
  f.type = FrameType::kSamples;
  const auto count = static_cast<std::uint32_t>(samples.size());
  // Fixed-width layout: size the payload once and fill it in place.
  f.payload.resize(kSampleHeaderBytes + kSampleRecordBytes * count);
  auto* p = f.payload.data();
  const auto put = [&p](const auto& v) {
    std::memcpy(p, &v, sizeof(v));
    p += sizeof(v);
  };
  put(sweep_time);
  put(core::raw(origin));
  put(count);
  for (const auto& s : samples) {
    put(core::raw(s.series));
    put(s.time);
    put(s.value);
  }
  return f;
}

Result<std::size_t> sample_frame_bytes(const Frame& frame) {
  if (frame.type != FrameType::kSamples) {
    return Result<std::size_t>::error("frame is not a sample batch");
  }
  if (frame.payload.size() < kSampleHeaderBytes) {
    return Result<std::size_t>::error("truncated sample frame header");
  }
  std::uint32_t count = 0;
  std::memcpy(&count, frame.payload.data() + kSampleCountOffset, 4);
  const std::size_t bytes =
      kSampleHeaderBytes + kSampleRecordBytes * static_cast<std::size_t>(count);
  if (frame.payload.size() < bytes) {
    return Result<std::size_t>::error("truncated sample frame body");
  }
  return bytes;
}

Result<SampleBatch> decode_samples(const Frame& frame) {
  // Validate first: a header's count sizes the batch only once the body is
  // known to hold every record it counts (the payload may come off a socket).
  const auto bytes = sample_frame_bytes(frame);
  if (!bytes.is_ok()) return bytes.status();
  const auto* p = frame.payload.data();
  const auto get = [&p](auto& v) {
    std::memcpy(&v, p, sizeof(v));
    p += sizeof(v);
  };
  SampleBatch batch;
  std::uint32_t origin = 0;
  std::uint32_t count = 0;
  get(batch.sweep_time);
  get(origin);
  get(count);
  batch.origin = core::ComponentId{origin};
  batch.samples.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Sample s;
    std::uint32_t series = 0;
    get(series);
    get(s.time);
    get(s.value);
    s.series = core::SeriesId{series};
    batch.samples.push_back(s);
  }
  return batch;
}

namespace {

// The compact layout's bytes are defined least significant first; the
// encoder and decoder move them with memcpy.
static_assert(std::endian::native == std::endian::little);

std::uint64_t zigzag(std::uint64_t v) {
  return (v << 1) ^ (0 - (v >> 63));
}
std::uint64_t unzigzag(std::uint64_t v) { return (v >> 1) ^ (0 - (v & 1)); }

std::uint8_t* put_varint(std::uint8_t* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

/// Reads one varint of at most 10 bytes that fits in 64 bits.
bool get_varint(const std::uint8_t*& p, const std::uint8_t* end,
                std::uint64_t& v) {
  v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (p == end) return false;
    const std::uint8_t b = *p++;
    if (shift == 63 && b > 1) return false;  // past 64 bits
    v |= std::uint64_t{b & 0x7Fu} << shift;
    if (b < 0x80) return true;
  }
  return false;
}

}  // namespace

std::size_t compact_samples(const std::uint8_t* payload, std::uint8_t* out,
                            core::TimePoint& newest) {
  std::uint64_t sweep = 0;
  std::uint32_t count = 0;
  std::memcpy(&sweep, payload, 8);
  std::memcpy(&count, payload + kSampleCountOffset, 4);
  std::memcpy(out, payload, kSampleHeaderBytes);
  auto* p = out + kSampleHeaderBytes;
  auto max_time = static_cast<core::TimePoint>(sweep);
  std::uint64_t prev_id = 0;
  std::uint64_t prev_bits = 0;
  for (const auto* r = payload + kSampleHeaderBytes; count > 0;
       --count, r += kSampleRecordBytes) {
    std::uint32_t id = 0;
    std::uint64_t time = 0;
    std::uint64_t bits = 0;
    std::memcpy(&id, r, 4);
    std::memcpy(&time, r + 4, 8);
    std::memcpy(&bits, r + 12, 8);
    max_time = std::max(max_time, static_cast<core::TimePoint>(time));
    const std::uint64_t x = bits ^ prev_bits;
    std::uint64_t low = 0;
    std::uint8_t control = 0;
    int n = 0;
    if (x != 0) {
      const int t = std::countr_zero(x) >> 3;
      low = x >> (8 * t);
      n = 8 - (std::countl_zero(low) >> 3);
      control = static_cast<std::uint8_t>(n << 3 | t);
    }
    const std::uint64_t id_delta = id - prev_id;
    if (id_delta == 1 && time == sweep) {
      *p++ = control | kCompactDense;
    } else {
      *p++ = control;
      p = put_varint(p, zigzag(id_delta));
      p = put_varint(p, zigzag(time - sweep));
    }
    std::memcpy(p, &low, 8);  // the n low bytes; the rest is slack
    p += n;
    prev_id = id;
    prev_bits = bits;
  }
  newest = max_time;
  return static_cast<std::size_t>(p - out);
}

Result<SampleBatch> decode_compact_samples(
    std::span<const std::uint8_t> payload) {
  if (payload.size() < kSampleHeaderBytes) {
    return Result<SampleBatch>::error("truncated compact sample header");
  }
  SampleBatch batch;
  std::uint64_t sweep = 0;
  std::uint32_t origin = 0;
  std::uint32_t count = 0;
  std::memcpy(&sweep, payload.data(), 8);
  std::memcpy(&origin, payload.data() + 8, 4);
  std::memcpy(&count, payload.data() + kSampleCountOffset, 4);
  // The count sizes the batch only once the bytes could hold that many.
  if (count > (payload.size() - kSampleHeaderBytes) / kCompactSampleMinBytes) {
    return Result<SampleBatch>::error("compact sample count exceeds body");
  }
  batch.sweep_time = static_cast<core::TimePoint>(sweep);
  batch.origin = core::ComponentId{origin};
  batch.samples.reserve(count);
  const auto* p = payload.data() + kSampleHeaderBytes;
  const auto* end = payload.data() + payload.size();
  std::uint64_t id = 0;
  std::uint64_t bits = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (p == end) return Result<SampleBatch>::error("truncated compact sample");
    const std::uint8_t control = *p++;
    const int n = (control >> 3) & 0x0F;
    const int t = control & 0x07;
    if ((n == 0 && t != 0) || n + t > 8) {
      return Result<SampleBatch>::error("invalid compact control byte");
    }
    std::uint64_t time = sweep;
    if ((control & kCompactDense) != 0) {
      ++id;
    } else {
      std::uint64_t id_delta = 0;
      std::uint64_t time_delta = 0;
      if (!get_varint(p, end, id_delta) || !get_varint(p, end, time_delta)) {
        return Result<SampleBatch>::error("truncated compact sample");
      }
      id += unzigzag(id_delta);
      time += unzigzag(time_delta);
    }
    if (id > UINT32_MAX) {
      return Result<SampleBatch>::error("compact series id out of range");
    }
    if (end - p < n) {
      return Result<SampleBatch>::error("truncated compact value");
    }
    std::uint64_t low = 0;
    std::memcpy(&low, p, static_cast<std::size_t>(n));
    p += n;
    bits ^= low << (8 * t);
    Sample s;
    s.series = core::SeriesId{static_cast<std::uint32_t>(id)};
    s.time = static_cast<core::TimePoint>(time);
    std::memcpy(&s.value, &bits, 8);
    batch.samples.push_back(s);
  }
  if (p != end) {
    return Result<SampleBatch>::error("trailing bytes after compact samples");
  }
  return batch;
}

Frame encode_logs(const std::vector<LogEvent>& events) {
  Frame f;
  f.type = FrameType::kLogs;
  ByteWriter w(f.payload);
  w.u32(static_cast<std::uint32_t>(events.size()));
  for (const auto& e : events) {
    w.i64(e.time);
    w.i64(e.local_time);
    w.u32(core::raw(e.component));
    w.u8(static_cast<std::uint8_t>(e.facility));
    w.u8(static_cast<std::uint8_t>(e.severity));
    w.u64(core::raw(e.job));
    w.str(e.message);
  }
  return f;
}

Result<std::vector<LogEvent>> decode_logs(const Frame& frame) {
  if (frame.type != FrameType::kLogs) {
    return Result<std::vector<LogEvent>>::error("frame is not a log batch");
  }
  ByteReader r(frame.payload);
  std::uint32_t count = 0;
  if (!r.u32(count)) {
    return Result<std::vector<LogEvent>>::error("truncated log frame header");
  }
  std::vector<LogEvent> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    LogEvent e;
    std::uint32_t comp = 0;
    std::uint8_t fac = 0;
    std::uint8_t sev = 0;
    std::uint64_t job = 0;
    if (!r.i64(e.time) || !r.i64(e.local_time) || !r.u32(comp) ||
        !r.u8(fac) || !r.u8(sev) || !r.u64(job) || !r.str(e.message)) {
      return Result<std::vector<LogEvent>>::error("truncated log frame body");
    }
    e.component = core::ComponentId{comp};
    e.facility = static_cast<core::LogFacility>(fac);
    e.severity = static_cast<core::Severity>(sev);
    e.job = core::JobId{job};
    out.push_back(std::move(e));
  }
  return out;
}

std::string format_text(const LogEvent& event,
                        const core::MetricRegistry& registry) {
  const int pri = static_cast<int>(event.facility) * 8 +
                  static_cast<int>(event.severity);
  const std::string comp = event.component == core::kNoComponent
                               ? "-"
                               : registry.component(event.component).name;
  return core::strformat("<%d> %s %s %s: %s", pri,
                         core::format_time(event.time).c_str(), comp.c_str(),
                         std::string(core::to_string(event.facility)).c_str(),
                         event.message.c_str());
}

std::optional<LogEvent> parse_text(const std::string& line,
                                   const core::MetricRegistry& registry) {
  int pri = 0;
  long long days = 0, h = 0, m = 0, s = 0, ms = 0;
  char comp[128] = {0};
  char fac[32] = {0};
  int consumed = 0;
  const int n =
      std::sscanf(line.c_str(), "<%d> %lld+%lld:%lld:%lld.%lld %127s %31[^:]: %n",
                  &pri, &days, &h, &m, &s, &ms, comp, fac, &consumed);
  if (n < 8) return std::nullopt;
  LogEvent e;
  e.time = ((days * 24 + h) * 3600 + m * 60 + s) * core::kSecond +
           ms * core::kMillisecond;
  e.local_time = e.time;  // lost in translation: local stamp not in text form
  e.severity = static_cast<core::Severity>(pri % 8);
  e.facility = static_cast<core::LogFacility>(pri / 8);
  e.job = core::kNoJob;  // lost in translation
  if (auto id = registry.find_component(comp)) {
    e.component = *id;
  } else {
    e.component = core::kNoComponent;
  }
  e.message = line.substr(static_cast<std::size_t>(consumed));
  return e;
}

}  // namespace hpcmon::transport
