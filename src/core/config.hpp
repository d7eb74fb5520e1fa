// Flat key-value configuration text.
//
// Table I (Architecture) requires that "changes in data direction and data
// access [be] easily configured and changed"; a deployment is described by
// a Config rather than hard-coded. Supports "key = value" text parsing with
// '#' comments so examples can ship config files. A Config holds raw text
// only: its consumer parses it once and strictly, so an unknown key or a
// malformed value is an error, never a silent default.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "core/result.hpp"

namespace hpcmon::core {

class Config {
 public:
  Config() = default;

  /// Parse "key = value" lines; '#' starts a comment; blank lines ignored.
  static Result<Config> parse(std::string_view text);

  using Entries = std::map<std::string, std::string, std::less<>>;

  /// Set `key`, replacing any earlier value (later layers override).
  void set(std::string_view key, std::string_view value);
  void set_int(std::string_view key, std::int64_t value);
  void set_bool(std::string_view key, bool value);

  bool contains(std::string_view key) const;
  std::string get_string(std::string_view key, std::string_view dflt) const;
  /// Every key with its raw value, in sorted order. Typed reads belong to
  /// the consumer's own strict parser (e.g. stack::StackOptions::parse).
  const Entries& entries() const { return values_; }

  /// Keys in sorted order (for dumps).
  std::string dump() const;
  std::size_t size() const { return values_.size(); }

 private:
  Entries values_;
};

}  // namespace hpcmon::core
