// Seeded mutation fuzzer over the outside-input strings the CLIs accept:
// `--policy` and `--arrival` specs (one grammar, common/spec.hpp) and
// `--fault-crash-at` schedules. A fixed seed mutates a corpus of valid
// inputs by byte insertions, deletions and replacements, and every mutant
// must satisfy:
//   - validate / make / make_live never throw and fail only with
//     invalid_argument, or failed_precondition where a context is missing
//     (an untimed trace for `trace`, no converged run for `fixed`);
//   - an accepted spec reads back every value exactly as an independent
//     parse of its text gives it (integers: digits only + from_chars;
//     reals: the whole string through strtod), and a policy spec is
//     accepted exactly when that parse succeeds and its durations fit
//     the simulator clock;
//   - an accepted crash schedule starts at or after 0, lasts 0 or more and
//     names an MDS the cluster has.
#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "origami/cluster/options.hpp"
#include "origami/common/rng.hpp"
#include "origami/common/spec.hpp"
#include "origami/policy/registry.hpp"
#include "origami/wl/arrival.hpp"

namespace origami {
namespace {

constexpr std::uint64_t kSeed = 0x5bec;
constexpr int kMutants = 20'000;
constexpr std::uint32_t kMds = 5;

/// The byte alphabet mutations draw from: digits, letters, the grammar's
/// punctuation, space and (the array's terminator) NUL.
constexpr char kAlphabetBytes[] =
    "0123456789abcdefghijklmnopqrstuvwxyz:,=+-.e@ ";
constexpr std::string_view kAlphabet{kAlphabetBytes, sizeof kAlphabetBytes};

std::string mutate(std::string s, common::Xoshiro256& rng) {
  const std::uint64_t edits = 1 + rng.uniform(3);
  for (std::uint64_t i = 0; i < edits; ++i) {
    const char byte = kAlphabet[rng.uniform(kAlphabet.size())];
    switch (s.empty() ? 0 : rng.uniform(3)) {
      case 0:
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(
                                 rng.uniform(s.size() + 1)),
                 byte);
        break;
      case 1:
        s.erase(rng.uniform(s.size()), 1);
        break;
      default:
        s[rng.uniform(s.size())] = byte;
        break;
    }
  }
  return s;
}

// ------------------------------------------------ an independent reading --

/// `name[:key=value,...]` split without the library's parser; nullopt when
/// the text is not in the grammar.
struct Split {
  std::string name;
  std::vector<std::pair<std::string, std::string>> params;
};

std::optional<Split> split(const std::string& text) {
  Split out;
  const std::size_t colon = text.find(':');
  out.name = text.substr(0, colon);
  if (out.name.empty()) return std::nullopt;
  if (colon == std::string::npos) return out;
  std::string rest = text.substr(colon + 1);
  for (;;) {
    const std::size_t comma = rest.find(',');
    const std::string item = rest.substr(0, comma);
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) return std::nullopt;
    out.params.emplace_back(item.substr(0, eq), item.substr(eq + 1));
    if (comma == std::string::npos) return out;
    rest.erase(0, comma + 1);
  }
}

using Number = std::variant<std::int64_t, double>;

std::optional<Number> read(const std::string& text, common::ParamKind kind) {
  if (kind == common::ParamKind::kInt) {
    for (const char c : text) {
      if (c < '0' || c > '9') return std::nullopt;
    }
    std::int64_t v = 0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
    return v;
  }
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() ||
      !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

/// The values of `text` for an entry declaring `decls`, read independently;
/// nullopt when a key is undeclared or repeated or a value does not read.
std::optional<std::vector<std::pair<std::string, Number>>> independent(
    const Split& s, const std::vector<common::ParamDecl>& decls) {
  std::vector<std::pair<std::string, Number>> out;
  for (const auto& [key, text] : s.params) {
    const common::ParamDecl* decl = nullptr;
    for (const auto& d : decls) {
      if (d.key == key) decl = &d;
    }
    if (decl == nullptr) return std::nullopt;
    for (const auto& [seen, unused] : out) {
      if (seen == key) return std::nullopt;
    }
    auto v = read(text, decl->kind);
    if (!v) return std::nullopt;
    out.emplace_back(key, *v);
  }
  return out;
}

/// The policies' one range rule: a `*-ms` or `*-us` value, in
/// nanoseconds, lies within [-2^63, 2^63).
bool durations_fit(const std::vector<std::pair<std::string, Number>>& values) {
  for (const auto& [key, number] : values) {
    const double* v = std::get_if<double>(&number);
    const double unit = key.ends_with("-ms")   ? 1e6
                        : key.ends_with("-us") ? 1e3
                                               : 0.0;
    if (v == nullptr || unit == 0.0) continue;
    if (*v * unit < -0x1p63 || *v * unit >= 0x1p63) return false;
  }
  return true;
}

/// Every value the library's reader hands a factory equals the
/// independent reading, bit for bit.
void expect_reads_back(const std::string& text,
                       const std::vector<common::ParamDecl>& decls,
                       const std::vector<std::pair<std::string, Number>>& want) {
  auto spec = common::parse_spec(text);
  ASSERT_TRUE(spec.is_ok()) << text;
  auto values = common::check_spec(spec.value(), decls, "fuzz");
  ASSERT_TRUE(values.is_ok()) << text;
  for (const auto& [key, number] : want) {
    if (const auto* i = std::get_if<std::int64_t>(&number)) {
      EXPECT_EQ(values.value().get_int(key, -1), *i) << text;
    } else {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(
                    values.value().get_double(key, -1.0)),
                std::bit_cast<std::uint64_t>(std::get<double>(number)))
          << text;
    }
  }
}

template <typename Entry>
const Entry* named(const std::vector<Entry>& entries, const std::string& name) {
  for (const Entry& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

// ------------------------------------------------------------- the corpus --

std::vector<std::string> policy_corpus() {
  std::vector<std::string> out = {
      "origami:budget=4,min-ops=2,trigger=0.2", "origami:trigger=1e-1,budget=8",
      "origami:candidates=4", "origami:trigger=0", "origami:budget=2",
      "greedy-spill:budget=2,trigger=0.1,alpha=0.5,patience=3"};
  for (const policy::Entry& e : policy::Registry::builtin().entries()) {
    out.push_back(e.name);
    for (const common::ParamDecl& p : e.params) {
      out.push_back(e.name + ":" + p.key + "=" + p.default_value);
    }
  }
  return out;
}

std::vector<std::string> arrival_corpus() {
  std::vector<std::string> out = {
      "open:rate=120000", "paced:rate=150000", "trace:speed=2",
      "bursty:rate=200000,seed=5", "bursty:rate=9000,amp=0.3",
      "tenant:tenants=4,rate=100000,burst=8",
      "tenant:tenants=3,rate=100,burst=1"};
  for (const wl::ArrivalEntry& e : wl::ArrivalRegistry::builtin().entries()) {
    out.push_back(e.name);
    for (const common::ParamDecl& p : e.params) {
      out.push_back(e.name + ":" + p.key + "=" + p.default_value);
    }
  }
  return out;
}

const std::vector<std::string> kCrashCorpus = {"1@5+3", "0@0+0,4@1.5+2",
                                               "2@100+50,3@1e3+2"};

// ----------------------------------------------------------- the checks --

bool is_invalid(const common::Status& s) {
  return s.code() == common::StatusCode::kInvalidArgument;
}

void check_policy(const std::string& text) {
  const policy::Registry& r = policy::Registry::builtin();
  const common::Status valid = r.validate(text);
  ASSERT_TRUE(valid.is_ok() || is_invalid(valid)) << valid.to_string();
  const auto made = r.make(text, {});
  const auto live = r.make_live(text, {});
  if (!valid.is_ok()) {
    EXPECT_TRUE(is_invalid(made.status())) << text;
    EXPECT_TRUE(is_invalid(live.status())) << text;
  } else {
    EXPECT_TRUE(made.is_ok() || made.status().code() ==
                                    common::StatusCode::kFailedPrecondition)
        << text << ": " << made.status().to_string();
    EXPECT_TRUE(live.is_ok() || is_invalid(live.status()))
        << text << ": " << live.status().to_string();
  }
  // The grammar decides, and then the durations' range.
  const auto s = split(text);
  const policy::Entry* entry = s ? named(r.entries(), s->name) : nullptr;
  auto want = entry ? independent(*s, entry->params) : std::nullopt;
  if (want && !durations_fit(*want)) want.reset();
  ASSERT_EQ(valid.is_ok(), want.has_value()) << text << ": "
                                             << valid.to_string();
  if (want) expect_reads_back(text, entry->params, *want);
}

void check_arrival(const std::string& text) {
  const wl::ArrivalRegistry& r = wl::ArrivalRegistry::builtin();
  const common::Status valid = r.validate(text);
  ASSERT_TRUE(valid.is_ok() || is_invalid(valid)) << valid.to_string();
  const auto made = r.make(text, {nullptr, 4});
  if (!valid.is_ok()) {
    EXPECT_TRUE(is_invalid(made.status())) << text;
    return;
  }
  EXPECT_TRUE(made.is_ok() || made.status().code() ==
                                  common::StatusCode::kFailedPrecondition)
      << text << ": " << made.status().to_string();
  // An accepted spec is in the grammar; the range checks may refuse more.
  const auto s = split(text);
  ASSERT_TRUE(s.has_value()) << text;
  const wl::ArrivalEntry* entry = named(r.entries(), s->name);
  ASSERT_NE(entry, nullptr) << text;
  const auto want = independent(*s, entry->params);
  ASSERT_TRUE(want.has_value()) << text;
  expect_reads_back(text, entry->params, *want);
}

void check_crash_schedule(const std::string& text) {
  const auto parsed = cluster::parse_crash_schedule(text, kMds);
  if (!parsed.is_ok()) {
    EXPECT_TRUE(is_invalid(parsed.status())) << text;
    return;
  }
  for (const fault::FaultWindow& w : parsed.value()) {
    EXPECT_LT(w.mds, kMds) << text;
    EXPECT_GE(w.from, 0) << text;
    EXPECT_GE(w.until, w.from) << text;
  }
}

TEST(SpecFuzz, CorpusIsAccepted) {
  for (const std::string& text : policy_corpus()) {
    EXPECT_TRUE(policy::Registry::builtin().validate(text).is_ok()) << text;
  }
  for (const std::string& text : arrival_corpus()) {
    EXPECT_TRUE(wl::ArrivalRegistry::builtin().validate(text).is_ok())
        << text;
  }
  for (const std::string& text : kCrashCorpus) {
    EXPECT_TRUE(cluster::parse_crash_schedule(text, kMds).is_ok()) << text;
  }
}

TEST(SpecFuzz, MutantsFailCleanlyOrReadBackExactly) {
  const std::vector<std::string> policies = policy_corpus();
  const std::vector<std::string> arrivals = arrival_corpus();
  const std::size_t total =
      policies.size() + arrivals.size() + kCrashCorpus.size();
  common::Xoshiro256 rng(kSeed);
  for (int i = 0; i < kMutants; ++i) {
    std::size_t pick = rng.uniform(total);
    if (pick < policies.size()) {
      check_policy(mutate(policies[pick], rng));
    } else if ((pick -= policies.size()) < arrivals.size()) {
      check_arrival(mutate(arrivals[pick], rng));
    } else {
      check_crash_schedule(
          mutate(kCrashCorpus[pick - arrivals.size()], rng));
    }
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace origami
