#include "resilience/wal.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "core/crc32.hpp"
#include "core/strings.hpp"
#include "transport/codec.hpp"

namespace hpcmon::resilience {

namespace fs = std::filesystem;
using core::SampleBatch;
using core::Status;
using core::TimePoint;

namespace {
constexpr std::uint32_t kWalMagic = 0x4C575048;  // "HPWL"
constexpr std::uint32_t kWalVersion = 1;
// A record longer than this is treated as a corrupt length header: no sane
// sweep produces a 64 MiB batch, and bounding it keeps replay from trying
// to allocate garbage lengths read from a damaged file.
constexpr std::uint32_t kMaxRecordBytes = 64u << 20;

bool write_u32(std::FILE* f, std::uint32_t v) {
  return std::fwrite(&v, 4, 1, f) == 1;
}
bool read_u32(std::FILE* f, std::uint32_t& v) {
  return std::fread(&v, 4, 1, f) == 1;
}

/// Scan one segment; `apply` may be empty (header-validation / max-time
/// scans). Returns the newest sample time seen (INT64_MIN when none).
TimePoint scan_segment(const std::string& path,
                       const std::function<void(SampleBatch&&)>& apply,
                       ReplayStats& stats) {
  TimePoint max_time = INT64_MIN;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    ++stats.bad_segments;
    return max_time;
  }
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  if (!read_u32(f, magic) || magic != kWalMagic || !read_u32(f, version) ||
      version != kWalVersion) {
    ++stats.bad_segments;
    std::fclose(f);
    return max_time;
  }
  ++stats.segments;
  std::vector<std::uint8_t> payload;
  for (;;) {
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
    if (!read_u32(f, len)) break;  // clean end of segment
    if (!read_u32(f, crc) || len > kMaxRecordBytes) {
      // Header torn mid-write (or length garbage): everything before the
      // tear is already applied; stop here.
      ++stats.torn_tails;
      break;
    }
    payload.resize(len);
    if (len != 0 && std::fread(payload.data(), 1, len, f) != len) {
      ++stats.torn_tails;  // payload torn mid-write
      break;
    }
    if (core::crc32(payload.data(), payload.size()) != crc) {
      ++stats.corrupt_skipped;  // bit rot: skip this record, keep scanning
      continue;
    }
    transport::Frame frame;
    frame.type = transport::FrameType::kSamples;
    frame.payload = payload;
    auto batch = transport::decode_samples(frame);
    if (!batch.is_ok()) {
      ++stats.corrupt_skipped;
      continue;
    }
    ++stats.records;
    stats.samples += batch.value().size();
    max_time = std::max(max_time, transport::sample_frame_max_time(frame));
    if (apply) apply(std::move(batch).take());
  }
  std::fclose(f);
  return max_time;
}

/// Segment files in `dir`, ascending by index.
std::vector<std::pair<std::uint64_t, std::string>> list_segments(
    const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    unsigned long long index = 0;
    int consumed = 0;
    if (std::sscanf(name.c_str(), "wal-%20llu.seg%n", &index, &consumed) == 1 &&
        consumed == static_cast<int>(name.size())) {
      out.emplace_back(index, entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}
}  // namespace

std::string ReplayStats::to_string() const {
  return core::strformat(
      "replay segs=%llu rec=%llu samples=%llu corrupt=%llu torn=%llu bad=%llu",
      static_cast<unsigned long long>(segments),
      static_cast<unsigned long long>(records),
      static_cast<unsigned long long>(samples),
      static_cast<unsigned long long>(corrupt_skipped),
      static_cast<unsigned long long>(torn_tails),
      static_cast<unsigned long long>(bad_segments));
}

WriteAheadLog::WriteAheadLog(WalOptions opts) : opts_(std::move(opts)) {
  if (opts_.segment_bytes < 64) opts_.segment_bytes = 64;
  std::error_code ec;
  fs::create_directories(opts_.dir, ec);
  std::uint64_t highest = 0;
  for (auto& [index, path] : list_segments(opts_.dir)) {
    // Pre-existing segments (a previous incarnation's log) become sealed:
    // replayable and truncatable, never appended to — so a torn tail from
    // the crash we are recovering from can never be written past.
    ReplayStats scratch;
    Sealed s;
    s.index = index;
    s.path = path;
    s.max_time = scan_segment(path, {}, scratch);
    sealed_.push_back(std::move(s));
    highest = std::max(highest, index);
  }
  if (!open_segment(highest + 1).is_ok()) dead_ = true;
}

WriteAheadLog::~WriteAheadLog() {
  if (file_ != nullptr) std::fclose(file_);
}

std::string WriteAheadLog::segment_path(std::uint64_t index) const {
  return opts_.dir +
         core::strformat("/wal-%08llu.seg",
                         static_cast<unsigned long long>(index));
}

core::Status WriteAheadLog::open_segment(std::uint64_t index) {
  file_ = std::fopen(segment_path(index).c_str(), "wb");
  if (file_ == nullptr) {
    return Status::error("wal: cannot open " + segment_path(index));
  }
  active_index_ = index;
  active_max_time_ = INT64_MIN;
  file_bytes_ = 8;
  segments_created_.add();
  if (!write_u32(file_, kWalMagic) || !write_u32(file_, kWalVersion) ||
      std::fflush(file_) != 0) {
    return Status::error("wal: short header write");
  }
  return Status::ok();
}

void WriteAheadLog::seal_active() {
  std::fclose(file_);
  file_ = nullptr;
  Sealed s;
  s.index = active_index_;
  s.path = segment_path(active_index_);
  s.max_time = active_max_time_;
  sealed_.push_back(std::move(s));
}

core::Status WriteAheadLog::append(const transport::Frame& frame) {
  std::scoped_lock lock(mu_);
  return append_locked(frame);
}

core::Status WriteAheadLog::append_locked(const transport::Frame& frame) {
  // Validate in place; the record is the exact byte range decode_samples
  // reads, so nothing is decoded or re-encoded on the publish path.
  const auto extent = transport::sample_frame_bytes(frame);
  if (!extent.is_ok()) return extent.status();
  const std::size_t bytes = extent.value();
  const std::size_t samples =
      (bytes - transport::kSampleHeaderBytes) / transport::kSampleRecordBytes;
  if (samples == 0) return Status::ok();
  if (dead_ || file_ == nullptr) {
    append_failures_.add();
    return Status::error("wal: log is poisoned");
  }
  if (opts_.faults != nullptr) {
    // One fs-op consult per logical append (the record write); the generic
    // injector maps onto the WAL's two observable failure shapes.
    switch (opts_.faults->fs_fault(core::FsOp::kWrite)) {
      case core::FsFault::kNone:
        break;
      case core::FsFault::kError:
        append_failures_.add();
        return Status::error("wal: injected I/O error");
      case core::FsFault::kEnospc:
        append_failures_.add();
        return Status::error("wal: injected ENOSPC");
      case core::FsFault::kShortWrite:
      case core::FsFault::kCrash:
        // A crash mid-append and a short write are indistinguishable to the
        // next reader: both leave a torn tail that replay must tolerate.
        tear_locked();
        return Status::error("wal: injected short write (torn tail)");
    }
  }
  const auto* payload = frame.payload.data();
  const auto len = static_cast<std::uint32_t>(bytes);
  const std::uint32_t crc = core::crc32(payload, bytes);
  const bool ok = write_u32(file_, len) && write_u32(file_, crc) &&
                  std::fwrite(payload, 1, bytes, file_) == bytes &&
                  std::fflush(file_) == 0;
  if (!ok) {
    // A real short write leaves an undefined tail; poison the log so the
    // damage is bounded to one record (replay tolerates the tear).
    dead_ = true;
    append_failures_.add();
    return Status::error("wal: short write");
  }
  file_bytes_ += 8 + bytes;
  active_max_time_ =
      std::max(active_max_time_, transport::sample_frame_max_time(frame));
  appended_records_.add();
  appended_samples_.add(samples);
  appended_bytes_.add(8 + bytes);
  if (file_bytes_ >= opts_.segment_bytes) {
    seal_active();
    if (!open_segment(active_index_ + 1).is_ok()) dead_ = true;
  }
  return Status::ok();
}

bool WriteAheadLog::try_deliver(const transport::Frame& frame) {
  if (opts_.faults != nullptr && opts_.faults->delivery_error()) return false;
  return append_locked(frame).is_ok();
}

bool WriteAheadLog::deliver(const transport::Frame& frame,
                            OnFailure on_failure) {
  std::scoped_lock lock(mu_);
  for (int n = 0; n < kDeliveryAttempts; ++n) {
    if (n > 0) retries_.add();
    if (try_deliver(frame)) {
      delivered_.add();
      return true;
    }
  }
  failures_.add();
  if (on_failure == OnFailure::kDeadLetter && opts_.dead_letter_cap > 0) {
    dead_letter(frame);
  }
  return false;
}

void WriteAheadLog::dead_letter(const transport::Frame& frame) {
  if (dead_letters_.size() >= opts_.dead_letter_cap) {
    // Priority values order kCritical(0) < kStandard < kBulk, so the victim
    // is the first (oldest) frame of the largest value present.
    auto victim = dead_letters_.begin();
    for (auto it = dead_letters_.begin(); it != dead_letters_.end(); ++it) {
      if (it->priority > victim->priority) victim = it;
    }
    evicted_.add();
    if (victim->priority < frame.priority) {
      update_dlq_fill();
      return;  // the newcomer is the lowest class in sight
    }
    dead_letters_.erase(victim);
  }
  dead_letters_.push_back(frame);
  dead_lettered_.add();
  update_dlq_fill();
}

std::size_t WriteAheadLog::redeliver() {
  std::scoped_lock lock(mu_);
  std::size_t ok = 0;
  const std::size_t pending = dead_letters_.size();
  for (std::size_t i = 0; i < pending; ++i) {
    transport::Frame frame = std::move(dead_letters_.front());
    dead_letters_.pop_front();
    if (try_deliver(frame)) {
      ++ok;
      redelivered_.add();
    } else {
      dead_letters_.push_back(std::move(frame));  // keep, retry later
    }
  }
  update_dlq_fill();
  return ok;
}

void WriteAheadLog::update_dlq_fill() {
  dlq_fill_.set(opts_.dead_letter_cap == 0
                    ? 0.0
                    : static_cast<double>(dead_letters_.size()) /
                          static_cast<double>(opts_.dead_letter_cap));
}

core::Status WriteAheadLog::rotate() {
  std::scoped_lock lock(mu_);
  if (file_ != nullptr) seal_active();
  const auto st = open_segment(active_index_ + 1);
  dead_ = !st.is_ok();
  return st;
}

core::Status WriteAheadLog::sync() {
  std::scoped_lock lock(mu_);
  if (file_ == nullptr) return Status::error("wal: no active segment");
  return std::fflush(file_) == 0 ? Status::ok()
                                 : Status::error("wal: flush failed");
}

void WriteAheadLog::simulate_torn_tail() {
  std::scoped_lock lock(mu_);
  tear_locked();
}

void WriteAheadLog::tear_locked() {
  if (file_ == nullptr) return;
  // Promise an 80-byte payload, deliver half of it, then "crash".
  const std::vector<std::uint8_t> half(40, 0xAB);
  write_u32(file_, 80);
  write_u32(file_, core::crc32(half.data(), half.size()));
  std::fwrite(half.data(), 1, half.size(), file_);
  std::fflush(file_);
  dead_ = true;
  append_failures_.add();
}

std::size_t WriteAheadLog::truncate_before(TimePoint cutoff) {
  std::scoped_lock lock(mu_);
  std::size_t removed = 0;
  auto it = sealed_.begin();
  while (it != sealed_.end() && it->max_time < cutoff) {
    std::error_code ec;
    fs::remove(it->path, ec);
    it = sealed_.erase(it);
    ++removed;
    segments_truncated_.add();
  }
  return removed;
}

ReplayStats WriteAheadLog::replay(
    const std::string& dir,
    const std::function<void(SampleBatch&&)>& apply) {
  ReplayStats stats;
  for (auto& [index, path] : list_segments(dir)) {
    scan_segment(path, apply, stats);
  }
  return stats;
}

void WriteAheadLog::attach_to(obs::ObsRegistry& registry) const {
  registry.attach({"resilience.wal_records", "records",
                   "sample batches appended to the write-ahead log"},
                  &appended_records_);
  registry.attach({"resilience.wal_samples", "samples",
                   "samples made durable by the WAL"},
                  &appended_samples_);
  registry.attach({"resilience.wal_bytes", "bytes",
                   "bytes appended to the WAL"},
                  &appended_bytes_);
  registry.attach({"resilience.wal_append_failures", "records",
                   "WAL appends that failed (I/O error or torn write)"},
                  &append_failures_);
  registry.attach({"resilience.wal_segments_created", "segments",
                   "WAL segments opened (initial + rotations)"},
                  &segments_created_);
  registry.attach(
      {"resilience.wal_segments_truncated", "segments",
       "sealed WAL segments deleted past the durability watermark"},
      &segments_truncated_);
  registry.attach({"resilience.delivered_frames", "frames",
                   "frames that eventually got through"},
                  &delivered_);
  registry.attach({"resilience.delivery_retries", "attempts",
                   "extra delivery attempts beyond the first"},
                  &retries_);
  registry.attach({"resilience.delivery_failures", "frames",
                   "frames that exhausted every delivery attempt"},
                  &failures_);
  registry.attach({"resilience.dead_letters", "frames",
                   "frames parked in the dead-letter queue (cumulative)"},
                  &dead_lettered_);
  registry.attach({"resilience.dead_letter_evictions", "frames",
                   "dead letters evicted by the bounded queue"},
                  &evicted_);
  registry.attach({"resilience.redelivered", "frames",
                   "dead letters successfully redelivered"},
                  &redelivered_);
  obs::InstrumentInfo fill;
  fill.name = "resilience.dlq_fill";
  fill.unit = "frac";
  fill.description = "dead-letter queue occupancy / capacity";
  fill.gauge_agg = obs::GaugeAgg::kMax;
  registry.attach(fill, &dlq_fill_);
}

}  // namespace hpcmon::resilience
