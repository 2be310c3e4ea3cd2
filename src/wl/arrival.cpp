#include "origami/wl/arrival.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace origami::wl {

namespace {

// ------------------------------------------------------------ processes --

/// The historical closed loop: a fixed client population, one request in
/// flight each, next issue chained off a completion by the engine. The
/// policy only places the 1 µs initial stagger (the base class default).
class ClosedArrival final : public ArrivalPolicy {
 public:
  [[nodiscard]] const char* name() const override { return "closed"; }
  [[nodiscard]] bool closed_loop() const override { return true; }
  [[nodiscard]] sim::SimTime next_arrival(std::uint64_t, sim::SimTime,
                                          common::Xoshiro256&) override {
    return 0;  // never called: closed loops chain off completions
  }
};

/// Poisson arrivals at an aggregate offered rate, gaps drawn from the
/// engine-owned stream. This reproduces the epoch DES's historical open
/// loop bit-for-bit: the same `exponential` draw, the same double
/// arithmetic (note the double round trip through `mean_gap_s` — rewriting
/// it as `exponential(rate_)` would perturb the last ulp), the same 1 ns
/// floor, added to the previous arrival.
class OpenArrival final : public ArrivalPolicy {
 public:
  explicit OpenArrival(double rate) : rate_(rate) {}
  [[nodiscard]] const char* name() const override { return "open"; }
  [[nodiscard]] sim::SimTime next_arrival(std::uint64_t, sim::SimTime prev,
                                          common::Xoshiro256& rng) override {
    const double mean_gap_s = 1.0 / rate_;
    const sim::SimTime gap = std::max<sim::SimTime>(
        1, static_cast<sim::SimTime>(rng.exponential(1.0 / mean_gap_s) *
                                     static_cast<double>(sim::kSecond)));
    return prev + gap;
  }

 private:
  double rate_;
};

/// Deterministic fixed-gap pacing: op `i` arrives at `gap * i`. This is
/// the live plane's historical open loop (the gap rounding matches its
/// original arithmetic exactly); it draws nothing, so the stream is
/// identical under any engine.
class PacedArrival final : public ArrivalPolicy {
 public:
  explicit PacedArrival(double rate)
      : gap_(std::max<sim::SimTime>(
            1, static_cast<sim::SimTime>(std::llround(1e9 / rate)))) {}
  [[nodiscard]] const char* name() const override { return "paced"; }
  [[nodiscard]] sim::SimTime next_arrival(std::uint64_t index, sim::SimTime,
                                          common::Xoshiro256&) override {
    return gap_ * static_cast<sim::SimTime>(index);
  }

 private:
  sim::SimTime gap_;
};

/// Replays the workload's native per-op timestamps (`Trace::arrivals`),
/// optionally time-scaled: `speed=2` replays twice as fast. When the
/// engine loops the trace (`--loop`), each full pass is shifted by the
/// previous pass's span, so the process keeps advancing monotonically.
class TraceArrival final : public ArrivalPolicy {
 public:
  TraceArrival(const std::vector<sim::SimTime>& arrivals, double speed)
      : arrivals_(arrivals), speed_(speed) {}
  [[nodiscard]] const char* name() const override { return "trace"; }
  [[nodiscard]] sim::SimTime first_arrival() override {
    return scale(arrivals_.front());
  }
  [[nodiscard]] sim::SimTime next_arrival(std::uint64_t index,
                                          sim::SimTime prev,
                                          common::Xoshiro256&) override {
    const std::uint64_t n = arrivals_.size();
    const std::uint64_t i = index % n;
    if (i == 0 && index != 0) {
      // Wrapped: restart the timeline one gap after the previous pass.
      cycle_offset_ = prev + 1 - scale(arrivals_.front());
    }
    return std::max(prev, cycle_offset_ + scale(arrivals_[i]));
  }

 private:
  [[nodiscard]] sim::SimTime scale(sim::SimTime t) const {
    return static_cast<sim::SimTime>(static_cast<double>(t) / speed_);
  }

  const std::vector<sim::SimTime>& arrivals_;
  double speed_;
  sim::SimTime cycle_offset_ = 0;
};

/// Flash-crowd arrivals: a nonhomogeneous Poisson process whose rate is a
/// diurnal sinusoid around `rate`, multiplied inside randomly-placed spike
/// windows (one per period with probability `spike-prob`, placement and
/// decision hashed from the period index — a pure function of absolute
/// time, so the envelope never depends on draw history). Sampled by
/// thinning against the peak rate with a *policy-owned* seeded generator:
/// the engine's jitter stream is untouched, and the process is identical
/// across the epoch and live planes.
class BurstyArrival final : public ArrivalPolicy {
 public:
  BurstyArrival(double rate, sim::SimTime period, double amplitude,
                double spike_prob, double spike_mult, sim::SimTime spike_len,
                std::uint64_t seed)
      : rate_(rate),
        period_(period),
        amplitude_(amplitude),
        spike_prob_(spike_prob),
        spike_mult_(spike_mult),
        spike_len_(spike_len),
        seed_(seed),
        peak_rate_(rate * (1.0 + amplitude) * std::max(1.0, spike_mult)),
        rng_(seed ^ 0xb1757ULL) {}

  [[nodiscard]] const char* name() const override { return "bursty"; }
  [[nodiscard]] sim::SimTime next_arrival(std::uint64_t, sim::SimTime prev,
                                          common::Xoshiro256&) override {
    sim::SimTime t = prev;
    for (;;) {
      const double gap_s = rng_.exponential(peak_rate_);
      t += std::max<sim::SimTime>(
          1, static_cast<sim::SimTime>(gap_s *
                                       static_cast<double>(sim::kSecond)));
      if (rng_.uniform_double() * peak_rate_ <= rate_at(t)) return t;
    }
  }

  /// The instantaneous offered rate (ops/s) at absolute time `t` —
  /// exposed so tests can integrate the envelope the sampler thins
  /// against.
  [[nodiscard]] double rate_at(sim::SimTime t) const {
    const double phase = 2.0 * M_PI * static_cast<double>(t % period_) /
                         static_cast<double>(period_);
    double r = rate_ * (1.0 + amplitude_ * std::sin(phase));
    const auto period_idx = static_cast<std::uint64_t>(t / period_);
    common::SplitMix64 mix(seed_ ^ (period_idx * 0x9e3779b97f4a7c15ULL + 1));
    const double decide =
        static_cast<double>(mix.next() >> 11) * 0x1.0p-53;  // in [0,1)
    if (decide < spike_prob_) {
      const auto max_off =
          static_cast<std::uint64_t>(std::max<sim::SimTime>(
              1, period_ - std::min(period_, spike_len_)));
      const auto offset = static_cast<sim::SimTime>(mix.next() % max_off);
      const sim::SimTime in_period = t % period_;
      if (in_period >= offset && in_period < offset + spike_len_) {
        r *= spike_mult_;
      }
    }
    return r;
  }

 private:
  double rate_;
  sim::SimTime period_;
  double amplitude_;
  double spike_prob_;
  double spike_mult_;
  sim::SimTime spike_len_;
  std::uint64_t seed_;
  double peak_rate_;
  common::Xoshiro256 rng_;
};

/// Per-tenant rate limiting: tenants take turns (op `i` belongs to tenant
/// `i % tenants`), each behind its own token bucket (`rate` tokens/s,
/// `burst` capacity). A tenant with tokens admits at the offered instant;
/// one that ran dry waits for its bucket — enforcing the per-tenant rate
/// no matter how hot the aggregate stream runs. Fully deterministic.
class TenantArrival final : public ArrivalPolicy {
 public:
  TenantArrival(std::uint32_t tenants, double rate, double burst)
      : rate_(rate),
        burst_(burst),
        tokens_(tenants, burst),
        last_(tenants, 0) {}

  [[nodiscard]] const char* name() const override { return "tenant"; }
  [[nodiscard]] std::uint32_t client_of(std::uint64_t index) const override {
    return static_cast<std::uint32_t>(index % tokens_.size());
  }
  [[nodiscard]] sim::SimTime next_arrival(std::uint64_t index,
                                          sim::SimTime prev,
                                          common::Xoshiro256&) override {
    const std::uint32_t t = client_of(index);
    const double refill = static_cast<double>(prev - last_[t]) * rate_ /
                          static_cast<double>(sim::kSecond);
    double tokens = std::min(burst_, tokens_[t] + refill);
    if (tokens >= 1.0) {
      tokens_[t] = tokens - 1.0;
      last_[t] = prev;
      return prev;
    }
    const auto wait = static_cast<sim::SimTime>(
        std::ceil((1.0 - tokens) / rate_ * static_cast<double>(sim::kSecond)));
    const sim::SimTime at = prev + std::max<sim::SimTime>(1, wait);
    tokens_[t] = 0.0;
    last_[t] = at;
    return at;
  }

 private:
  double rate_;
  double burst_;
  std::vector<double> tokens_;
  std::vector<sim::SimTime> last_;
};

// ------------------------------------------------------------ validation --

constexpr auto kInt = common::ParamKind::kInt;
constexpr auto kReal = common::ParamKind::kReal;

/// The tenant state is two slots per tenant; this bounds its memory.
constexpr std::int64_t kMaxTenants = 1 << 16;

common::Status positive_double(const common::SpecValues& p, const char* key,
                               double fallback) {
  if (!(p.get_double(key, fallback) > 0.0)) {
    return common::Status::invalid_argument(
        std::string("parameter '") + key + "' must be a positive number");
  }
  return common::Status::ok();
}

/// A duration in milliseconds that converts to at least 1 ns of SimTime
/// and fits it (a zero period would divide by zero).
common::Status duration_ms(const common::SpecValues& p, const char* key,
                           double fallback) {
  const double v = p.get_double(key, fallback);
  if (!(v > 0.0 && v <= static_cast<double>(sim::kMaxMillis) &&
        sim::millis(v) >= 1)) {
    return common::Status::invalid_argument(
        std::string("parameter '") + key +
        "' must be a duration of at least 1 ns and at most " +
        std::to_string(sim::kMaxMillis) + " ms");
  }
  return common::Status::ok();
}

common::Status unit_interval(const common::SpecValues& p, const char* key,
                             double fallback) {
  const double v = p.get_double(key, fallback);
  if (!(v >= 0.0 && v <= 1.0)) {
    return common::Status::invalid_argument(
        std::string("parameter '") + key + "' must be within [0, 1]");
  }
  return common::Status::ok();
}

}  // namespace

// -------------------------------------------------------------- registry --

common::Status ArrivalRegistry::validate(const std::string& spec) const {
  auto checked = common::check_entry(entries_, spec, "arrival process");
  if (!checked.is_ok()) return checked.status();
  const auto& [entry, values] = checked.value();
  return entry->check ? entry->check(values) : common::Status::ok();
}

common::Result<std::unique_ptr<ArrivalPolicy>> ArrivalRegistry::make(
    const std::string& spec, const ArrivalContext& ctx) const {
  if (auto s = validate(spec); !s.is_ok()) return s;
  const auto checked = common::check_entry(entries_, spec, "arrival process");
  const auto& [entry, values] = checked.value();
  return entry->make(values, ctx);
}

std::string ArrivalRegistry::describe() const {
  std::ostringstream out;
  out << "Arrival processes (--arrival=<name>[:key=value,...]):\n";
  for (const ArrivalEntry& e : entries_) {
    out << "\n  " << e.name << " — " << e.summary << "\n";
    out << "    protocol: " << e.protocol
        << (e.needs_timed_trace ? " (needs a timed trace)" : "") << "\n";
    if (e.params.empty()) {
      out << "    params: none\n";
    } else {
      out << "    params:\n";
      for (const common::ParamDecl& p : e.params) {
        out << "      " << p.key << "=" << p.default_value << "  " << p.summary
            << "\n";
      }
    }
  }
  return out.str();
}

const ArrivalRegistry& ArrivalRegistry::builtin() {
  static const ArrivalRegistry* registry = [] {
    auto* r = new ArrivalRegistry();

    r->add({"closed",
            "fixed client population, one request in flight each; the next "
            "issue chains off a completion (the historical default)",
            "closed-loop", false,
            {},
            nullptr,
            [](const common::SpecValues&, const ArrivalContext&)
                -> common::Result<std::unique_ptr<ArrivalPolicy>> {
              return std::unique_ptr<ArrivalPolicy>(
                  std::make_unique<ClosedArrival>());
            }});

    r->add({"open",
            "Poisson arrivals at an aggregate offered rate, independent of "
            "completions (latency-vs-load curves)",
            "open-loop", false,
            {{"rate", "offered load, ops/second", "100000", kReal}},
            [](const common::SpecValues& p) {
              return positive_double(p, "rate", 100'000.0);
            },
            [](const common::SpecValues& p, const ArrivalContext&)
                -> common::Result<std::unique_ptr<ArrivalPolicy>> {
              return std::unique_ptr<ArrivalPolicy>(
                  std::make_unique<OpenArrival>(
                      p.get_double("rate", 100'000.0)));
            }});

    r->add({"paced",
            "deterministic fixed-gap arrivals at an aggregate rate (the "
            "live plane's historical --issue-rate)",
            "open-loop", false,
            {{"rate", "offered load, ops/second", "100000", kReal}},
            [](const common::SpecValues& p) {
              return positive_double(p, "rate", 100'000.0);
            },
            [](const common::SpecValues& p, const ArrivalContext&)
                -> common::Result<std::unique_ptr<ArrivalPolicy>> {
              return std::unique_ptr<ArrivalPolicy>(
                  std::make_unique<PacedArrival>(
                      p.get_double("rate", 100'000.0)));
            }});

    r->add({"trace",
            "replays the workload's native per-op timestamps "
            "(Trace::arrivals; falcon/midas families carry them)",
            "open-loop", true,
            {{"speed", "time-scale factor (2 = twice as fast)", "1", kReal}},
            [](const common::SpecValues& p) {
              return positive_double(p, "speed", 1.0);
            },
            [](const common::SpecValues& p, const ArrivalContext& ctx)
                -> common::Result<std::unique_ptr<ArrivalPolicy>> {
              if (ctx.trace == nullptr || !ctx.trace->timed()) {
                return common::Status::failed_precondition(
                    "--arrival=trace needs a workload with native "
                    "timestamps (falcon/midas families, or an imported "
                    "trace with @ns stamps)");
              }
              return std::unique_ptr<ArrivalPolicy>(
                  std::make_unique<TraceArrival>(
                      ctx.trace->arrivals, p.get_double("speed", 1.0)));
            }});

    r->add({"bursty",
            "flash-crowd arrivals: diurnal sinusoid around the base rate "
            "plus seeded spike windows (nonhomogeneous Poisson, thinned "
            "with a policy-owned generator)",
            "open-loop", false,
            {{"rate", "base offered load, ops/second", "50000", kReal},
             {"period-ms", "diurnal period, milliseconds", "1000", kReal},
             {"amp", "sinusoid amplitude as a fraction of rate", "0.5", kReal},
             {"spike-prob", "per-period chance of a spike window", "0.25",
              kReal},
             {"spike-mult", "rate multiplier inside a spike", "8", kReal},
             {"spike-ms", "spike window length, milliseconds", "50", kReal},
             {"seed", "policy-private RNG seed", "1", kInt}},
            [](const common::SpecValues& p) -> common::Status {
              if (auto s = positive_double(p, "rate", 50'000.0); !s.is_ok())
                return s;
              if (auto s = duration_ms(p, "period-ms", 1000.0); !s.is_ok())
                return s;
              if (auto s = unit_interval(p, "amp", 0.5); !s.is_ok()) return s;
              if (auto s = unit_interval(p, "spike-prob", 0.25); !s.is_ok())
                return s;
              if (auto s = positive_double(p, "spike-mult", 8.0); !s.is_ok())
                return s;
              if (auto s = duration_ms(p, "spike-ms", 50.0); !s.is_ok())
                return s;
              // The rate the sampler thins against: an infinite one never
              // accepts a draw.
              const double peak =
                  p.get_double("rate", 50'000.0) *
                  (1.0 + p.get_double("amp", 0.5)) *
                  std::max(1.0, p.get_double("spike-mult", 8.0));
              if (!std::isfinite(peak)) {
                return common::Status::invalid_argument(
                    "the peak rate, rate x (1 + amp) x max(1, spike-mult), "
                    "must be finite");
              }
              return common::Status::ok();
            },
            [](const common::SpecValues& p, const ArrivalContext&)
                -> common::Result<std::unique_ptr<ArrivalPolicy>> {
              return std::unique_ptr<ArrivalPolicy>(
                  std::make_unique<BurstyArrival>(
                      p.get_double("rate", 50'000.0),
                      sim::millis(p.get_double("period-ms", 1000.0)),
                      p.get_double("amp", 0.5),
                      p.get_double("spike-prob", 0.25),
                      p.get_double("spike-mult", 8.0),
                      sim::millis(p.get_double("spike-ms", 50.0)),
                      static_cast<std::uint64_t>(p.get_int("seed", 1))));
            }});

    r->add({"tenant",
            "round-robin tenants, each behind its own token bucket: the "
            "per-tenant rate holds no matter how hot the aggregate runs",
            "open-loop", false,
            {{"tenants", "tenant count (also the client lane count)", "8",
              kInt},
             {"rate", "per-tenant sustained rate, ops/second", "2000", kReal},
             {"burst", "token-bucket capacity (ops)", "16", kReal}},
            [](const common::SpecValues& p) -> common::Status {
              const std::int64_t tenants = p.get_int("tenants", 8);
              if (tenants < 1 || tenants > kMaxTenants) {
                return common::Status::invalid_argument(
                    "parameter 'tenants' must be within [1, " +
                    std::to_string(kMaxTenants) + "]");
              }
              if (auto s = positive_double(p, "rate", 2000.0); !s.is_ok())
                return s;
              if (p.get_double("burst", 16.0) < 1.0) {
                return common::Status::invalid_argument(
                    "parameter 'burst' must be >= 1");
              }
              return common::Status::ok();
            },
            [](const common::SpecValues& p, const ArrivalContext&)
                -> common::Result<std::unique_ptr<ArrivalPolicy>> {
              return std::unique_ptr<ArrivalPolicy>(
                  std::make_unique<TenantArrival>(
                      static_cast<std::uint32_t>(p.get_int("tenants", 8)),
                      p.get_double("rate", 2000.0),
                      p.get_double("burst", 16.0)));
            }});

    return r;
  }();
  return *registry;
}

std::unique_ptr<ArrivalPolicy> resolve_arrival(const std::string& spec,
                                               const ArrivalContext& ctx) {
  if (spec.empty()) return std::make_unique<ClosedArrival>();
  auto made = ArrivalRegistry::builtin().make(spec, ctx);
  if (!made.is_ok()) {
    throw std::invalid_argument("--arrival: " + made.status().to_string());
  }
  return std::move(made).value();
}

}  // namespace origami::wl
