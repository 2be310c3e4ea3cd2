#include "origami/cluster/options.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

#include "origami/common/spec.hpp"
#include "origami/wl/arrival.hpp"

namespace origami::cluster {

namespace {

/// One "mds@start_ms+dur_ms" entry, or nullopt when it does not read whole
/// or is out of range.
std::optional<fault::FaultWindow> crash_window(std::string_view item,
                                               std::uint32_t mds_count) {
  const std::size_t at = item.find('@');
  const std::size_t plus = item.find('+', at);
  if (plus == std::string_view::npos) return std::nullopt;
  const auto mds = common::parse_int(item.substr(0, at));
  const auto start = common::parse_real(item.substr(at + 1, plus - at - 1));
  const auto dur = common::parse_real(item.substr(plus + 1));
  if (!mds.is_ok() || !start.is_ok() || !dur.is_ok() ||
      mds.value() >= mds_count || start.value() < 0 || dur.value() < 0 ||
      start.value() + dur.value() > static_cast<double>(sim::kMaxMillis)) {
    return std::nullopt;
  }
  fault::FaultWindow w;
  w.mds = static_cast<std::uint32_t>(mds.value());
  w.kind = fault::FaultKind::kCrash;
  w.from = sim::millis(start.value());
  w.until = w.from + sim::millis(dur.value());
  return w;
}

}  // namespace

common::Result<std::vector<fault::FaultWindow>> parse_crash_schedule(
    const std::string& spec, std::uint32_t mds_count) {
  std::vector<fault::FaultWindow> out;
  for (std::size_t pos = 0;;) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string_view item =
        std::string_view(spec).substr(pos, comma - pos);
    const auto w = crash_window(item, mds_count);
    if (!w) {
      return common::Status::invalid_argument(
          "bad --fault-crash-at entry '" + std::string(item) +
          "' (expected mds@start_ms+dur_ms with mds below " +
          std::to_string(mds_count) + " and start_ms, dur_ms >= 0)");
    }
    out.push_back(*w);
    if (comma == spec.size()) return out;
    pos = comma + 1;
  }
}

namespace {

/// The --fault-* / --retry-* / --commit-* / --arrival* / --trace-*
/// vocabulary this parser owns. A flag with one of these prefixes that is
/// not listed here is a typo, and typos in fault/arrival knobs must not
/// silently run the default config.
constexpr const char* kOwnedFlags[] = {
    "fault-seed",           "fault-crash-prob",    "fault-recovery-ms",
    "fault-straggler-prob", "fault-straggler-slow", "fault-straggler-ms",
    "fault-loss-prob",      "fault-corrupt-prob",  "fault-crash-at",
    "retry-max",            "retry-timeout-ms",    "retry-backoff-ms",
    "retry-backoff-cap-ms", "commit-mode",         "commit-window",
    "commit-batch",         "arrival",             "trace-file",
    "trace-speed",
};

}  // namespace

bool is_shared_flag(const std::string& name) {
  return name.rfind("fault-", 0) == 0 || name.rfind("retry-", 0) == 0 ||
         name.rfind("commit-", 0) == 0 || name.rfind("arrival", 0) == 0 ||
         name.rfind("trace-", 0) == 0;
}

common::Result<ReplayOptions> options_from_flags(const common::Flags& flags,
                                                 ReplayOptions base) {
  std::string unknown;
  for (const std::string& name : flags.names()) {
    if (!is_shared_flag(name)) continue;
    bool known = false;
    for (const char* owned : kOwnedFlags) {
      if (name == owned) {
        known = true;
        break;
      }
    }
    if (!known) {
      if (!unknown.empty()) unknown += ", ";
      unknown += "--" + name;
    }
  }
  if (!unknown.empty()) {
    return common::Status::invalid_argument("unrecognized flag(s): " +
                                            unknown);
  }

  ReplayOptions opt = std::move(base);
  common::FlagReader read(flags);
  constexpr std::int64_t kU32 = std::numeric_limits<std::uint32_t>::max();
  constexpr double kMaxMs = static_cast<double>(sim::kMaxMillis);
  const auto u32 = [](std::int64_t v) { return static_cast<std::uint32_t>(v); };
  const auto ms = [](std::int64_t v) {
    return sim::millis(static_cast<double>(v));
  };
  if (auto v = read.int_flag("mds", 1, kU32)) opt.mds_count = u32(*v);
  if (auto v = read.int_flag("clients", 1, kU32)) opt.clients = u32(*v);
  if (auto v = read.int_flag("epoch-ms", 1, sim::kMaxMillis)) {
    opt.epoch_length = ms(*v);
  }
  if (flags.has("cache")) opt.cache_enabled = flags.get_bool("cache", true);
  if (auto v = read.int_flag("cache-depth", 0, kU32)) opt.cache_depth = u32(*v);
  if (flags.has("data-path")) {
    opt.data_path = flags.get_bool("data-path", false);
  }
  if (flags.has("kv-backing")) {
    opt.kv_backing = flags.get_bool("kv-backing", false);
  }
  if (flags.has("kv-wal-dir")) {
    opt.kv_wal_dir = flags.get("kv-wal-dir");
  }
  if (auto v = read.int_flag("warmup-epochs", 0, kU32)) {
    opt.warmup_epochs = u32(*v);
  }
  if (flags.has("policy")) {
    // Stored raw; resolved (and strictly validated) against
    // policy::Registry::builtin() by the caller — the engine layer cannot
    // depend on the policy layer above it.
    opt.policy = flags.get("policy");
  }
  if (flags.has("arrival")) {
    // Validated eagerly (unlike --policy the wl layer sits *below* the
    // engine, so this parser can afford strictness): a typo must exit with
    // usage, not silently fall back to the closed loop.
    const std::string spec = flags.get("arrival");
    if (auto s = wl::ArrivalRegistry::builtin().validate(spec); !s.is_ok()) {
      return s;
    }
    opt.arrival = spec;
  }
  if (flags.has("trace-speed")) {
    // Sugar for --arrival=trace:speed=F (replay native trace timestamps,
    // time-scaled). Mixing both spellings is ambiguous — reject it.
    if (flags.has("arrival")) {
      return common::Status::invalid_argument(
          "--trace-speed conflicts with --arrival (say "
          "--arrival=trace:speed=... instead)");
    }
    const std::string spec = "trace:speed=" + flags.get("trace-speed");
    if (auto s = wl::ArrivalRegistry::builtin().validate(spec); !s.is_ok()) {
      return s;
    }
    opt.arrival = spec;
  }
  fault::FaultPlan& plan = opt.faults;
  if (auto v = read.int_flag("fault-seed", 0,
                             std::numeric_limits<std::int64_t>::max())) {
    plan.seed = static_cast<std::uint64_t>(*v);
  }
  if (auto v = read.real_flag("fault-crash-prob", 0.0, 1.0)) {
    plan.crash_prob = *v;
  }
  if (auto v = read.int_flag("fault-recovery-ms", 0, sim::kMaxMillis)) {
    plan.crash_recovery = ms(*v);
  }
  if (auto v = read.real_flag("fault-straggler-prob", 0.0, 1.0)) {
    plan.straggler_prob = *v;
  }
  if (auto v = read.real_flag("fault-straggler-slow", 0.0,
                              std::numeric_limits<double>::max())) {
    plan.straggler_slow = *v;
  }
  if (auto v = read.int_flag("fault-straggler-ms", 0, sim::kMaxMillis)) {
    plan.straggler_duration = ms(*v);
  }
  if (auto v = read.real_flag("fault-loss-prob", 0.0, 1.0)) {
    plan.rpc_loss_prob = *v;
  }
  if (auto v = read.real_flag("fault-corrupt-prob", 0.0, 1.0)) {
    plan.rpc_corrupt_prob = *v;
  }

  fault::RetryPolicy& retry = opt.retry;
  if (auto v = read.int_flag("retry-max", 0, kU32)) retry.max_retries = u32(*v);
  if (auto v = read.real_flag("retry-timeout-ms", 0.0, kMaxMs)) {
    retry.timeout = sim::millis(*v);
  }
  if (auto v = read.real_flag("retry-backoff-ms", 0.0, kMaxMs)) {
    retry.backoff_base = sim::millis(*v);
  }
  if (auto v = read.real_flag("retry-backoff-cap-ms", 0.0, kMaxMs)) {
    retry.backoff_cap = sim::millis(*v);
  }

  recovery::RecoveryParams& rec = opt.recovery;
  if (flags.has("commit-mode")) {
    const std::string mode = flags.get("commit-mode", "sync");
    if (mode == "sync") {
      rec.commit_mode = recovery::CommitMode::kSync;
    } else if (mode == "async") {
      rec.commit_mode = recovery::CommitMode::kAsync;
    } else {
      return common::Status::invalid_argument(
          "bad --commit-mode '" + mode + "' (expected sync or async)");
    }
  }
  if (auto v = read.real_flag("commit-window", 0.0, kMaxMs)) {
    rec.commit_window = sim::millis(*v);
  }
  if (auto v = read.int_flag("commit-batch", 0, kU32)) {
    rec.commit_batch = u32(*v);
  }
  if (!read.status().is_ok()) return read.status();
  if (flags.has("fault-crash-at")) {
    auto scheduled =
        parse_crash_schedule(flags.get("fault-crash-at"), opt.mds_count);
    if (!scheduled.is_ok()) return scheduled.status();
    plan.scheduled = std::move(scheduled).value();
  }

  // Async commit over the real store needs a real log to group-commit: the
  // measured-fsync contract is meaningless against an in-memory WAL, so the
  // combination without a writable --kv-wal-dir is a configuration error
  // (fails fast with usage, same as a typoed --fault-* knob).
  if (opt.kv_backing && rec.commit_mode == recovery::CommitMode::kAsync) {
    if (opt.kv_wal_dir.empty()) {
      return common::Status::invalid_argument(
          "--commit-mode=async with --kv-backing requires --kv-wal-dir "
          "(a writable directory for the per-MDS WAL files)");
    }
    const std::string probe = opt.kv_wal_dir + "/.wal_probe";
    std::ofstream probe_out(probe, std::ios::binary | std::ios::trunc);
    if (!probe_out) {
      return common::Status::invalid_argument(
          "--kv-wal-dir '" + opt.kv_wal_dir + "' is not a writable directory");
    }
    probe_out.close();
    std::remove(probe.c_str());
  }
  return opt;
}

}  // namespace origami::cluster
