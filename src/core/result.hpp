// Minimal Result/Status types for expected failures at module boundaries.
//
// hpcmon does not throw across library API boundaries for anticipated
// conditions (missing series, exhausted archive, malformed frame); those are
// reported as Status/Result values. Exceptions remain for programmer errors.
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace hpcmon::core {

/// Broad failure class, so callers can branch on *what kind* of failure
/// occurred (e.g. corruption is surfaced to operators differently than a
/// missing file) without parsing the human-readable message.
enum class StatusCode : std::uint8_t {
  kOk = 0,
  kError = 1,       // generic expected failure
  kCorruption = 2,  // data failed an integrity check (CRC, framing)
  kTooLarge = 3,    // over a hard size limit, refused before any write
};

class Status {
 public:
  Status() = default;  // OK
  static Status ok() { return Status(); }
  static Status error(std::string message) {
    return make(StatusCode::kError, std::move(message));
  }
  static Status corruption(std::string message) {
    return make(StatusCode::kCorruption, std::move(message));
  }
  static Status too_large(std::string message) {
    return make(StatusCode::kTooLarge, std::move(message));
  }

  bool is_ok() const { return code_ == StatusCode::kOk; }
  explicit operator bool() const { return is_ok(); }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

 private:
  static Status make(StatusCode code, std::string message) {
    Status s;
    s.message_ = std::move(message);
    s.code_ = code;
    return s;
  }

  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.is_ok() && "use the value constructor for success");
  }
  static Result error(std::string message) {
    return Result(Status::error(std::move(message)));
  }

  bool is_ok() const { return value_.has_value(); }
  explicit operator bool() const { return is_ok(); }

  const T& value() const& {
    assert(is_ok());
    return *value_;
  }
  T& value() & {
    assert(is_ok());
    return *value_;
  }
  T&& take() && {
    assert(is_ok());
    return std::move(*value_);
  }
  const Status& status() const { return status_; }
  const std::string& message() const { return status_.message(); }

 private:
  std::optional<T> value_;
  Status status_;
};

}  // namespace hpcmon::core
