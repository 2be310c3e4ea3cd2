#include "origami/common/spec.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace origami::common {

Result<Spec> parse_spec(std::string_view text) {
  Spec out;
  const std::size_t colon = text.find(':');
  out.name = std::string(text.substr(0, colon));
  if (out.name.empty()) {
    return Status::invalid_argument("spec '" + std::string(text) +
                                    "' has no name");
  }
  if (colon == std::string_view::npos) return out;
  for (std::size_t pos = colon + 1;;) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    const std::string_view item = text.substr(pos, comma - pos);
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return Status::invalid_argument(
          "bad parameter '" + std::string(item) + "' in spec '" +
          std::string(text) + "' (expected key=value)");
    }
    out.params.emplace_back(item.substr(0, eq), item.substr(eq + 1));
    if (comma == text.size()) return out;
    pos = comma + 1;
  }
}

Result<std::int64_t> parse_int(std::string_view text) {
  std::int64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || text.find_first_not_of("0123456789") != text.npos ||
      ec != std::errc() || ptr != end) {
    return Status::invalid_argument(
        "'" + std::string(text) +
        "' (expected an integer of decimal digits within int64)");
  }
  return value;
}

Result<double> parse_real(std::string_view text) {
  // strtod needs a terminated copy; comparing the end with the copy's size
  // keeps an embedded NUL from cutting the value short.
  const std::string copy(text);
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (copy.empty() || end != copy.c_str() + copy.size() ||
      !std::isfinite(value)) {
    return Status::invalid_argument("'" + copy +
                                    "' (expected a finite number)");
  }
  return value;
}

std::int64_t SpecValues::get_int(std::string_view key,
                                 std::int64_t fallback) const {
  for (const auto& [k, v] : values) {
    if (k == key) return std::get<std::int64_t>(v);
  }
  return fallback;
}

double SpecValues::get_double(std::string_view key, double fallback) const {
  for (const auto& [k, v] : values) {
    if (k == key) return std::get<double>(v);
  }
  return fallback;
}

Result<SpecValues> check_spec(const Spec& spec,
                              const std::vector<ParamDecl>& decls,
                              std::string_view owner) {
  SpecValues out;
  for (const auto& [key, text] : spec.params) {
    const auto decl =
        std::find_if(decls.begin(), decls.end(),
                     [&](const ParamDecl& d) { return d.key == key; });
    if (decl == decls.end()) {
      std::string keys;
      for (const ParamDecl& d : decls) {
        keys += (keys.empty() ? "" : ", ") + d.key;
      }
      return Status::invalid_argument(
          std::string(owner) + " has no parameter '" + key + "'" +
          (keys.empty() ? " (it takes none)" : " (it takes: " + keys + ")"));
    }
    for (const auto& [seen, unused] : out.values) {
      if (seen == key) {
        return Status::invalid_argument(
            std::string(owner) + " sets parameter '" + key + "' twice");
      }
    }
    Status read;
    if (decl->kind == ParamKind::kInt) {
      auto v = parse_int(text);
      read = v.status();
      if (v.is_ok()) out.values.emplace_back(key, v.value());
    } else {
      auto v = parse_real(text);
      read = v.status();
      if (v.is_ok()) out.values.emplace_back(key, v.value());
    }
    if (!read.is_ok()) {
      return Status::invalid_argument(std::string(owner) + " parameter '" +
                                      key + "' has value " + read.message());
    }
  }
  return out;
}

}  // namespace origami::common
