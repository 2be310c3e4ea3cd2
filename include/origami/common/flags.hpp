#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "origami/common/status.hpp"

namespace origami::common {

/// Minimal command-line parser for the CLI tools: accepts `--key value`,
/// `--key=value` and boolean `--flag` forms plus positional arguments.
/// Unknown flags are collected so callers can reject them with a usage
/// message.
class Flags {
 public:
  Flags(int argc, const char* const* argv);

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  [[nodiscard]] bool has(std::string_view name) const;
  [[nodiscard]] std::string get(std::string_view name,
                                std::string fallback = {}) const;
  [[nodiscard]] std::int64_t get_int(std::string_view name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(std::string_view name, double fallback) const;
  [[nodiscard]] bool get_bool(std::string_view name, bool fallback) const;

  /// Names seen on the command line (without dashes), for validation.
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  std::map<std::string, std::string, std::less<>> values_;
  std::vector<std::string> positional_;
};

/// Strict reads of flag values by the spec grammar's value rules
/// (common/spec.hpp): an integer is plain decimal digits, a real is a
/// finite number, and either must lie within the caller's [lo, hi]. An
/// absent flag reads as nullopt. A present flag that does not read, or
/// reads out of range, also reads as nullopt and records an
/// `invalid_argument` naming it; `status()` is the first such failure.
class FlagReader {
 public:
  explicit FlagReader(const Flags& flags) : flags_(flags) {}

  std::optional<std::int64_t> int_flag(std::string_view name, std::int64_t lo,
                                       std::int64_t hi);
  std::optional<double> real_flag(std::string_view name, double lo,
                                  double hi);

  [[nodiscard]] const Status& status() const noexcept { return status_; }

 private:
  void fail(std::string_view name, const std::string& expected);

  const Flags& flags_;
  Status status_;
};

}  // namespace origami::common
