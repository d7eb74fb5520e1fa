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
/// The version written: compact records. Version 1 (fixed-width frame
/// payloads) is only read, to recover a log an older binary left.
constexpr std::uint32_t kWalVersion = 2;
constexpr std::uint32_t kWalVersionFrames = 1;

bool write_u32(std::FILE* f, std::uint32_t v) {
  return std::fwrite(&v, 4, 1, f) == 1;
}
bool read_u32(std::FILE* f, std::uint32_t& v) {
  return std::fread(&v, 4, 1, f) == 1;
}

/// The sample count in a frame or record header.
std::uint32_t sample_count(const std::uint8_t* payload) {
  std::uint32_t count = 0;
  std::memcpy(&count, payload + transport::kSampleCountOffset, 4);
  return count;
}

core::Result<SampleBatch> decode_record(
    std::uint32_t version, const std::vector<std::uint8_t>& payload) {
  if (version == kWalVersion) return transport::decode_compact_samples(payload);
  transport::Frame frame;
  frame.payload = payload;
  return transport::decode_samples(frame);
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
      (version != kWalVersion && version != kWalVersionFrames)) {
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
    if (!read_u32(f, crc) || len > WriteAheadLog::kMaxRecordBytes) {
      // Header torn mid-write (or length garbage: no sane sweep produces a
      // 64 MiB batch, and the bound keeps a damaged header from sizing an
      // allocation): everything before the tear is already applied; stop
      // here. Every way in refuses a record that could be longer, so no
      // acknowledged record is read as a tear.
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
    auto batch = decode_record(version, payload);
    if (!batch.is_ok()) {
      ++stats.corrupt_skipped;
      continue;
    }
    ++stats.records;
    stats.samples += batch.value().size();
    max_time = std::max(max_time, batch.value().sweep_time);
    for (const auto& s : batch.value().samples) {
      max_time = std::max(max_time, s.time);
    }
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
  {
    std::scoped_lock q(qmu_);
    stopping_ = true;
  }
  posted_cv_.notify_one();
  // The writer drains what is still posted unless abandon() dropped it.
  if (writer_.joinable()) writer_.join();
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

core::Result<std::size_t> WriteAheadLog::record_bytes(
    const transport::Frame& frame) {
  // Validate in place: the frame's bytes are the exact range decode_samples
  // reads. The limit goes by the record's worst-case compact length, which
  // can exceed the frame's.
  auto extent = transport::sample_frame_bytes(frame);
  if (extent.is_ok()) {
    const std::size_t worst = transport::kSampleHeaderBytes +
                              transport::kCompactSampleMaxBytes *
                                  sample_count(frame.payload.data());
    if (worst > kMaxRecordBytes) {
      append_failures_.add();
      return Status::too_large(core::strformat(
          "wal: a record of up to %zu bytes exceeds the %zu-byte limit",
          worst, kMaxRecordBytes));
    }
  }
  return extent;
}

core::Status WriteAheadLog::append(const transport::Frame& frame) {
  const auto extent = record_bytes(frame);
  if (!extent.is_ok()) return extent.status();
  std::scoped_lock lock(mu_);
  drain_posted_locked();
  batch_.assign(1, {frame.payload.data(), extent.value(), frame.priority});
  return write_batch_locked(1, /*draw_faults=*/false);
}

core::Status WriteAheadLog::write_locked(Record& r) {
  const std::uint32_t samples = sample_count(r.payload);
  if (samples == 0) {
    r.written = true;  // nothing to log; nothing stored
    return Status::ok();
  }
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
  // The record is the frame transcoded to the compact layout, in a reused
  // buffer (record_bytes() bounds it).
  const std::size_t bound = transport::compact_samples_bound(samples);
  if (record_.size() < bound) record_.resize(bound);
  TimePoint newest = INT64_MIN;
  const std::size_t bytes =
      transport::compact_samples(r.payload, record_.data(), newest);
  const auto len = static_cast<std::uint32_t>(bytes);
  const std::uint32_t crc = core::crc32(record_.data(), bytes);
  const bool ok = write_u32(file_, len) && write_u32(file_, crc) &&
                  std::fwrite(record_.data(), 1, bytes, file_) == bytes;
  // A buffer sized for a record larger than a group buffer is given back.
  if (record_.size() > kGroupBytes) record_ = {};
  if (!ok) {
    // A real short write leaves an undefined tail; poison the log so the
    // damage is bounded to one record (replay tolerates the tear).
    dead_ = true;
    append_failures_.add();
    return Status::error("wal: short write");
  }
  r.written = true;
  r.stored = 8 + bytes;
  file_bytes_ += r.stored;
  active_max_time_ = std::max(active_max_time_, newest);
  return Status::ok();
}

core::Status WriteAheadLog::write_batch_locked(int tries, bool draw_faults) {
  Status last = Status::ok();
  std::size_t run = 0;  // the first record no flush has covered yet
  // Flush what records [run, end) wrote. A failed flush leaves every byte
  // since the last good one undefined, so none of them counts as logged.
  const auto flush_run = [&](std::size_t end) {
    bool wrote = false;
    for (std::size_t i = run; i < end; ++i) {
      wrote = wrote || batch_[i].stored > 0;
    }
    const bool flushed = !wrote || flush_locked();
    if (!flushed) last = Status::error("wal: flush failed");
    for (; run < end; ++run) {
      Record& r = batch_[run];
      r.logged = r.written && flushed;
      if (r.logged && r.stored > 0) {
        appended_records_.add();
        appended_samples_.add(sample_count(r.payload));
        appended_bytes_.add(r.stored);
      }
    }
  };
  for (std::size_t i = 0; i < batch_.size(); ++i) {
    Record& r = batch_[i];
    for (int n = 0; n < tries && !r.written; ++n) {
      if (n > 0) retries_.add();
      if (draw_faults && opts_.faults != nullptr &&
          opts_.faults->delivery_error()) {
        last = Status::error("wal: injected delivery error");
        continue;
      }
      const auto st = write_locked(r);
      if (!st.is_ok()) last = st;
    }
    if (r.written && file_bytes_ >= opts_.segment_bytes) {
      // Seal after the record that fills the segment, as a writer that
      // flushed every record would; the sealed file must hold its bytes.
      flush_run(i + 1);
      if (!dead_) {
        seal_active();
        if (!open_segment(active_index_ + 1).is_ok()) dead_ = true;
      }
    }
  }
  flush_run(batch_.size());
  return last;
}

bool WriteAheadLog::flush_locked() {
  if (file_ == nullptr) return true;
  // An injected failure still flushes: the bytes may or may not have
  // reached the file after a real error too, and the writer cannot tell.
  const bool flushed = std::fflush(file_) == 0;
  const bool injected =
      opts_.faults != nullptr && opts_.faults->flush_error();
  if (flushed && !injected) return true;
  // What reached the file is undefined; poison the log as a short write
  // does, so nothing is written past the damage.
  dead_ = true;
  append_failures_.add();
  return false;
}

void WriteAheadLog::settle_locked(OnFailure on_failure) {
  for (const Record& r : batch_) {
    if (r.logged) {
      delivered_.add();
      continue;
    }
    failures_.add();
    if (on_failure == OnFailure::kDeadLetter && opts_.dead_letter_cap > 0) {
      transport::Frame frame;
      frame.type = transport::FrameType::kSamples;
      frame.priority = r.priority;
      frame.payload.assign(r.payload, r.payload + r.bytes);
      dead_letter(std::move(frame));
    }
  }
}

bool WriteAheadLog::deliver(const transport::Frame& frame,
                            OnFailure on_failure) {
  // A frame no try can log (malformed, or past kMaxRecordBytes) is refused
  // outright: retrying it or parking it would only hold its bytes.
  const auto extent = record_bytes(frame);
  if (!extent.is_ok()) return false;
  std::scoped_lock lock(mu_);
  drain_posted_locked();
  batch_.assign(1, {frame.payload.data(), extent.value(), frame.priority});
  write_batch_locked(kDeliveryAttempts, /*draw_faults=*/true);
  settle_locked(on_failure);
  return batch_.front().logged;
}

core::Result<std::uint64_t> WriteAheadLog::post(
    const transport::Frame& frame) {
  const auto extent = record_bytes(frame);
  if (!extent.is_ok()) return extent.status();
  const std::size_t bytes = extent.value();
  if (bytes == transport::kSampleHeaderBytes) return std::uint64_t{0};
  std::unique_lock q(qmu_);
  if (abandoned_) return Status::error("wal: abandoned");
  if (!writer_.joinable()) {
    for (auto& g : groups_) g.bytes.reserve(kGroupBytes);
    writer_ = std::thread([this] { writer_loop(); });
  }
  // Both groups full: the open one cannot take the record while the writer
  // still holds the other. An oversized record waits for an empty group.
  room_cv_.wait(q, [&] {
    const Group& g = groups_[open_];
    return abandoned_ || g.records.empty() ||
           g.bytes.size() + bytes <= kGroupBytes;
  });
  if (abandoned_) return Status::error("wal: abandoned");
  Group& g = groups_[open_];
  g.records.push_back({g.bytes.size(), bytes, frame.priority});
  g.bytes.insert(g.bytes.end(), frame.payload.begin(),
                 frame.payload.begin() + static_cast<std::ptrdiff_t>(bytes));
  const std::uint64_t ticket = ++posted_;
  q.unlock();
  posted_cv_.notify_one();
  return ticket;
}

bool WriteAheadLog::wait_decided(std::uint64_t ticket) const {
  if (decided_.load(std::memory_order_acquire) >= ticket) return true;
  std::unique_lock q(qmu_);
  decided_cv_.wait(q, [&] {
    return abandoned_ || decided_.load(std::memory_order_relaxed) >= ticket;
  });
  return decided_.load(std::memory_order_relaxed) >= ticket;
}

void WriteAheadLog::abandon() {
  {
    std::scoped_lock q(qmu_);
    abandoned_ = true;
    groups_[open_].bytes.clear();
    groups_[open_].records.clear();
  }
  posted_cv_.notify_one();
  room_cv_.notify_all();
  decided_cv_.notify_all();
  if (writer_.joinable()) writer_.join();
}

void WriteAheadLog::writer_loop() {
  for (;;) {
    {
      std::unique_lock q(qmu_);
      posted_cv_.wait(q, [&] {
        return abandoned_ || stopping_ || !groups_[open_].records.empty();
      });
      if (abandoned_ || groups_[open_].records.empty()) return;
    }
    std::scoped_lock lock(mu_);
    drain_posted_locked();
  }
}

void WriteAheadLog::drain_posted_locked() {
  Group* group = nullptr;
  std::uint64_t last = 0;
  {
    std::scoped_lock q(qmu_);
    // Drains run under mu_ one at a time, and each empties its group before
    // it returns, so the group the router moves to is always empty.
    if (abandoned_ || groups_[open_].records.empty()) return;
    group = &groups_[open_];
    open_ ^= 1;
    last = posted_;
  }
  room_cv_.notify_all();
  batch_.clear();
  for (const auto& r : group->records) {
    batch_.push_back({group->bytes.data() + r.offset, r.bytes, r.priority});
  }
  write_batch_locked(kDeliveryAttempts, /*draw_faults=*/true);
  // A record the log could not take is parked before its ticket counts as
  // decided, so the store never holds a sample that is in neither.
  settle_locked(OnFailure::kDeadLetter);
  {
    std::scoped_lock q(qmu_);
    group->records.clear();
    group->bytes.clear();
    if (group->bytes.capacity() > kGroupBytes) {
      // An oversized record had this group to itself; give the memory back.
      group->bytes.shrink_to_fit();
      group->bytes.reserve(kGroupBytes);
    }
    decided_.store(last, std::memory_order_release);
  }
  decided_cv_.notify_all();
}

void WriteAheadLog::dead_letter(transport::Frame frame) {
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
  dead_letters_.push_back(std::move(frame));
  dead_lettered_.add();
  update_dlq_fill();
}

std::size_t WriteAheadLog::redeliver() {
  std::scoped_lock lock(mu_);
  // Posted records still pending are newer than every letter, so they are
  // left to the writer: logging them first would put them ahead of older
  // samples of the same series, which replay then skips.
  batch_.clear();
  for (const auto& f : dead_letters_) {
    batch_.push_back({f.payload.data(), f.payload.size(), f.priority});
  }
  write_batch_locked(1, /*draw_faults=*/true);
  std::size_t ok = 0;
  std::deque<transport::Frame> kept;  // the rest, in their order
  for (std::size_t i = 0; i < batch_.size(); ++i) {
    if (batch_[i].logged) {
      ++ok;
      redelivered_.add();
    } else {
      kept.push_back(std::move(dead_letters_[i]));
    }
  }
  dead_letters_ = std::move(kept);
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
  // Posted records pending now are decided against the log as it stands:
  // on a poisoned log they are dead-lettered behind the older letters, so
  // the heal's redeliver() logs everything in the order it was published.
  drain_posted_locked();
  if (file_ != nullptr) seal_active();
  const auto st = open_segment(active_index_ + 1);
  dead_ = !st.is_ok();
  return st;
}

core::Status WriteAheadLog::sync() {
  std::scoped_lock lock(mu_);
  drain_posted_locked();
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
