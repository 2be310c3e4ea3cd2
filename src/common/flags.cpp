#include "origami/common/flags.hpp"

#include <cstdlib>
#include <sstream>

#include "origami/common/spec.hpp"

namespace origami::common {

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.size() < 3 || arg.substr(0, 2) != "--") {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      values_.emplace(std::string(arg.substr(0, eq)),
                      std::string(arg.substr(eq + 1)));
      continue;
    }
    // `--key value` unless the next token is itself a flag (then boolean).
    if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      values_.emplace(std::string(arg), argv[i + 1]);
      ++i;
    } else {
      values_.emplace(std::string(arg), "true");
    }
  }
}

bool Flags::has(std::string_view name) const {
  return values_.find(name) != values_.end();
}

std::string Flags::get(std::string_view name, std::string fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? std::move(fallback) : it->second;
}

std::int64_t Flags::get_int(std::string_view name, std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double Flags::get_double(std::string_view name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

bool Flags::get_bool(std::string_view name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes" ||
         it->second == "on";
}

std::vector<std::string> Flags::names() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, v] : values_) out.push_back(k);
  return out;
}

void FlagReader::fail(std::string_view name, const std::string& expected) {
  if (!status_.is_ok()) return;
  status_ = Status::invalid_argument("bad --" + std::string(name) + " '" +
                                     flags_.get(name) + "' (expected " +
                                     expected + ")");
}

std::optional<std::int64_t> FlagReader::int_flag(std::string_view name,
                                                 std::int64_t lo,
                                                 std::int64_t hi) {
  if (!flags_.has(name)) return std::nullopt;
  const auto value = parse_int(flags_.get(name));
  if (!value.is_ok() || value.value() < lo || value.value() > hi) {
    fail(name, "an integer in [" + std::to_string(lo) + ", " +
                   std::to_string(hi) + "]");
    return std::nullopt;
  }
  return value.value();
}

std::optional<double> FlagReader::real_flag(std::string_view name, double lo,
                                            double hi) {
  if (!flags_.has(name)) return std::nullopt;
  const auto value = parse_real(flags_.get(name));
  if (!value.is_ok() || !(value.value() >= lo && value.value() <= hi)) {
    std::ostringstream range;
    range << "a number in [" << lo << ", " << hi << "]";
    fail(name, range.str());
    return std::nullopt;
  }
  return value.value();
}

}  // namespace origami::common
