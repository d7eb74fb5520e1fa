// Wire codecs for telemetry frames.
//
// The paper's Sec. IV-A case study: Cray's ERD moves "a vast amount of data
// ... transported in a proprietary binary format (a small subset is made
// available to operations staff in text format)". ALCF had to reverse the
// format from source RPMs. hpcmon implements both paths as *documented*
// codecs: a compact binary frame format (what the ERD should have been —
// documented, lossless, raw) and a syslog-style text rendering (the lossy
// translated view). bench/ablation_transport measures the cost of the text
// detour; tests assert the binary path round-trips losslessly while the text
// path drops fields (job attribution, local timestamps) — exactly the
// paper's complaint.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/log_event.hpp"
#include "core/priority.hpp"
#include "core/registry.hpp"
#include "core/result.hpp"
#include "core/sample.hpp"

namespace hpcmon::transport {

enum class FrameType : std::uint8_t {
  kSamples = 1,  // SampleBatch payload
  kLogs = 2,     // LogEvent[] payload
};

/// One framed message: type tag + binary payload. `priority` is a hop-local
/// QoS tag (not serialized): the WAL's bounded dead-letter queue evicts
/// lower-priority frames first (see WriteAheadLog::deliver). Encoders
/// default it to kStandard; producers that know better (self-telemetry,
/// chaos floods) tag their frames explicitly.
struct Frame {
  FrameType type = FrameType::kSamples;
  core::Priority priority = core::Priority::kStandard;
  std::vector<std::uint8_t> payload;

  std::size_t byte_size() const { return payload.size() + 1; }
};

// -- Primitive byte codec ------------------------------------------------------
// The little-endian scalar/string primitives every binary frame body in
// hpcmon is built from (sample/log frames here, WAL records, and the serve
// tier's request/response bodies). Reader methods return false on underrun
// instead of throwing — adversarial input from a socket must fail cheaply.

class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { raw(&v, 2); }
  void u32(std::uint32_t v) { raw(&v, 4); }
  void u64(std::uint64_t v) { raw(&v, 8); }
  void i64(std::int64_t v) { raw(&v, 8); }
  void f64(double v) { raw(&v, 8); }
  /// Length-prefixed string, truncated at 65535 bytes.
  void str(const std::string& s) {
    u16(static_cast<std::uint16_t>(std::min<std::size_t>(s.size(), 65535)));
    raw(s.data(), std::min<std::size_t>(s.size(), 65535));
  }

 private:
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    out_.insert(out_.end(), b, b + n);
  }
  std::vector<std::uint8_t>& out_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& in) : in_(in) {}
  bool u8(std::uint8_t& v) { return raw(&v, 1); }
  bool u16(std::uint16_t& v) { return raw(&v, 2); }
  bool u32(std::uint32_t& v) { return raw(&v, 4); }
  bool u64(std::uint64_t& v) { return raw(&v, 8); }
  bool i64(std::int64_t& v) { return raw(&v, 8); }
  bool f64(double& v) { return raw(&v, 8); }
  bool str(std::string& s) {
    std::uint16_t n = 0;
    if (!u16(n)) return false;
    if (pos_ + n > in_.size()) return false;
    s.assign(reinterpret_cast<const char*>(in_.data() + pos_), n);
    pos_ += n;
    return true;
  }
  /// Bytes not yet consumed.
  std::size_t remaining() const { return in_.size() - pos_; }

 private:
  bool raw(void* p, std::size_t n) {
    if (pos_ + n > in_.size()) return false;
    std::memcpy(p, in_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  const std::vector<std::uint8_t>& in_;
  std::size_t pos_ = 0;
};

// -- Binary codec (lossless, documented) -------------------------------------

// Sample frame layout: a 16-byte header [i64 sweep_time][u32 origin]
// [u32 count], then `count` 20-byte records [u32 series][i64 time][f64 value].
// Frames and relay bodies carry it; the WAL stores the compact layout below.
inline constexpr std::size_t kSampleHeaderBytes = 16;
inline constexpr std::size_t kSampleCountOffset = 12;
inline constexpr std::size_t kSampleRecordBytes = 20;

Frame encode_samples(const core::SampleBatch& batch);
/// The same frame for a slice of a batch's samples, so a caller that splits
/// a batch (the relay's chunking) encodes straight from it without copying.
Frame encode_samples(core::TimePoint sweep_time, core::ComponentId origin,
                     std::span<const core::Sample> samples);
core::Result<core::SampleBatch> decode_samples(const Frame& frame);

/// Validate a sample frame without decoding it: the type is kSamples, the
/// header is present, and the payload holds every record the header counts.
/// Returns the number of payload bytes decode_samples reads (16 + 20·count);
/// trailing bytes past them are not part of the batch.
core::Result<std::size_t> sample_frame_bytes(const Frame& frame);

// -- Compact sample layout (WAL records, segment version 2) --------------------
// The same 16-byte header, then per sample, in order:
//   * a control byte `d << 7 | n << 3 | t`;
//   * unless d is set: the zigzag varint of the series-id delta from the
//     previous sample (the first sample's delta is from 0), 1..5 bytes,
//     then the zigzag varint of time - sweep_time (two's-complement wrap),
//     1..10 bytes. d is set exactly when the id delta is 1 and the time is
//     the sweep time, the common case of a sweep over contiguous series;
//   * the value's IEEE-754 bits XOR'd with the previous sample's bits (the
//     first with 0), as the n low bytes of x >> 8t, least significant first.
//     n (1..8) counts x's significant bytes and t (0..8-n) its trailing zero
//     bytes; x == 0 has n = t = 0 and no bytes. Every other (n, t) is
//     invalid.
// A varint is 7 bits per byte, least significant group first, the high bit
// set on every byte but the last. Byte-aligned, so each record decodes on
// its own (Gorilla's XOR idea, Pelkonen et al., VLDB 2015, without its bit
// packing).

/// The control byte's flag for a sample with no id or time varints.
inline constexpr std::uint8_t kCompactDense = 0x80;
/// The most bytes one compact sample can take: 1 + 5 + 10 + 8.
inline constexpr std::size_t kCompactSampleMaxBytes = 24;
/// The fewest: a dense control byte whose value repeats the previous one.
inline constexpr std::size_t kCompactSampleMinBytes = 1;

/// The buffer compact_samples() needs for a `count`-sample payload: the
/// worst case plus the 8 bytes of slack the encoder writes past its end.
constexpr std::size_t compact_samples_bound(std::uint32_t count) {
  return kSampleHeaderBytes + kCompactSampleMaxBytes * std::size_t{count} + 8;
}

/// Transcode the fixed-width payload of a frame sample_frame_bytes accepted
/// into the compact layout at `out` (compact_samples_bound(count) bytes).
/// Returns the compact length; `newest` gets the max of the sweep time and
/// every sample time.
std::size_t compact_samples(const std::uint8_t* payload, std::uint8_t* out,
                            core::TimePoint& newest);

/// Decode a compact payload. Fails, without sizing anything by the header
/// count first, on a short header, a count the bytes cannot hold, a
/// truncated field, a varint past 10 bytes or 64 bits, an id outside u32,
/// an invalid control byte, or trailing bytes. A field the encoder would
/// have written shorter is read by its value.
core::Result<core::SampleBatch> decode_compact_samples(
    std::span<const std::uint8_t> payload);

Frame encode_logs(const std::vector<core::LogEvent>& events);
core::Result<std::vector<core::LogEvent>> decode_logs(const Frame& frame);

// -- Text codec (syslog-style, lossy translation) -----------------------------

/// Render one event as a syslog-like line:
///   "<pri> D+HH:MM:SS.mmm component facility: message"
/// Deliberately loses job attribution and the local (drifted) timestamp —
/// the kind of "vendor translation/filtration" the paper warns "may result
/// in less usable forms of data".
std::string format_text(const core::LogEvent& event,
                        const core::MetricRegistry& registry);

/// Parse a format_text() line back into an event. Component names are
/// resolved through the registry; unknown components yield kNoComponent.
std::optional<core::LogEvent> parse_text(const std::string& line,
                                         const core::MetricRegistry& registry);

}  // namespace hpcmon::transport
