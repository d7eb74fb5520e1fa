#include "core/config.hpp"

#include "core/strings.hpp"

namespace hpcmon::core {

Result<Config> Config::parse(std::string_view text) {
  Config cfg;
  std::size_t line_no = 0;
  for (auto line : split(text, '\n')) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string_view::npos) {
      return Result<Config>::error(
          strformat("config line %zu: expected 'key = value'", line_no));
    }
    const auto key = trim(line.substr(0, eq));
    const auto value = trim(line.substr(eq + 1));
    if (key.empty()) {
      return Result<Config>::error(
          strformat("config line %zu: empty key", line_no));
    }
    cfg.set(key, value);
  }
  return cfg;
}

void Config::set(std::string_view key, std::string_view value) {
  values_.insert_or_assign(std::string(key), std::string(value));
}

void Config::set_int(std::string_view key, std::int64_t value) {
  set(key, strformat("%lld", static_cast<long long>(value)));
}

void Config::set_bool(std::string_view key, bool value) {
  set(key, value ? "true" : "false");
}

bool Config::contains(std::string_view key) const {
  return values_.find(key) != values_.end();
}

std::string Config::get_string(std::string_view key,
                               std::string_view dflt) const {
  if (auto it = values_.find(key); it != values_.end()) return it->second;
  return std::string(dflt);
}

std::string Config::dump() const {
  std::string out;
  for (const auto& [k, v] : values_) {
    out += k;
    out += " = ";
    out += v;
    out += '\n';
  }
  return out;
}

}  // namespace hpcmon::core
