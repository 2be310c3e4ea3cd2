#pragma once

// The one grammar behind `--policy` and `--arrival` specs:
// `name[:key=value[,key=value...]]`. Each registry entry declares its
// parameters with a kind; a spec is accepted only if its name is registered,
// every key is declared once and every value reads as its kind, and the
// values handed to the entry's factory are exactly the numbers read then.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "origami/common/status.hpp"

namespace origami::common {

/// How a declared parameter's value is written.
enum class ParamKind {
  kInt,   ///< plain decimal digits that fit int64: no sign, point or exponent
  kReal,  ///< a whole string `strtod` reads as a finite number
};

/// One declared parameter: settable as `name:key=value`.
struct ParamDecl {
  std::string key;
  std::string summary;
  std::string default_value;
  ParamKind kind = ParamKind::kReal;
};

/// A spec split by the grammar, values as written.
struct Spec {
  std::string name;
  std::vector<std::pair<std::string, std::string>> params;
};

/// Fails on an empty name and on an entry that is empty, has no '=' or has
/// an empty key; names and keys are not looked up.
Result<Spec> parse_spec(std::string_view text);

/// The value rules of the two kinds, also used for command-line flags.
Result<std::int64_t> parse_int(std::string_view text);
Result<double> parse_real(std::string_view text);

/// The values of a checked spec. A getter returns `fallback` for a key the
/// spec does not set, and throws `std::bad_variant_access` for a key
/// declared as the other kind (a registry bug, not bad input).
struct SpecValues {
  std::vector<std::pair<std::string, std::variant<std::int64_t, double>>>
      values;

  [[nodiscard]] std::int64_t get_int(std::string_view key,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(std::string_view key, double fallback) const;
};

/// Checks `spec`'s parameters against `decls`; `owner` names the entry in
/// errors (e.g. "policy 'origami'").
Result<SpecValues> check_spec(const Spec& spec,
                              const std::vector<ParamDecl>& decls,
                              std::string_view owner);

/// Parses `text`, finds its entry in `entries` by name (an unknown name is
/// an error listing the registered ones) and checks its parameters
/// against the entry's `params`. `what` names the kind of entry in errors
/// ("policy", "arrival process").
template <typename Entry>
Result<std::pair<const Entry*, SpecValues>> check_entry(
    const std::vector<Entry>& entries, std::string_view text,
    const std::string& what) {
  auto spec = parse_spec(text);
  if (!spec.is_ok()) return spec.status();
  std::string names;
  for (const Entry& e : entries) {
    if (e.name == spec.value().name) {
      auto values = check_spec(spec.value(), e.params,
                               what + " '" + e.name + "'");
      if (!values.is_ok()) return values.status();
      return std::pair{&e, std::move(values).value()};
    }
    names += (names.empty() ? "" : ", ") + e.name;
  }
  return Status::invalid_argument("unknown " + what + " '" +
                                  spec.value().name + "' (registered: " +
                                  names + ")");
}

}  // namespace origami::common
