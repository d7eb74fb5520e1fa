#include "transport/codec.hpp"

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

core::TimePoint sample_frame_max_time(const std::uint8_t* payload) {
  const auto* p = payload;
  core::TimePoint newest = 0;
  std::uint32_t count = 0;
  std::memcpy(&newest, p, 8);
  std::memcpy(&count, p + kSampleCountOffset, 4);
  // Strided read of each record's time field (series u32, then time i64).
  for (const auto* t = p + kSampleHeaderBytes + 4;
       count > 0; --count, t += kSampleRecordBytes) {
    core::TimePoint time = 0;
    std::memcpy(&time, t, 8);
    newest = std::max(newest, time);
  }
  return newest;
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
