#pragma once

#include <cstdint>
#include <vector>

#include "origami/common/rng.hpp"
#include "origami/sim/time.hpp"

namespace origami::fault {

/// Kinds of per-MDS fault windows the injector produces.
enum class FaultKind : std::uint8_t {
  kCrash,      ///< fail-stop: no requests served until recovery
  kStraggler,  ///< degraded: service times multiplied by `slow_factor`
};

/// One contiguous fault window on one MDS, on the virtual clock.
struct FaultWindow {
  std::uint32_t mds = 0;
  sim::SimTime from = 0;
  sim::SimTime until = 0;  ///< exclusive end (recovery instant)
  FaultKind kind = FaultKind::kCrash;
  double slow_factor = 1.0;  ///< stragglers only
};

/// Deterministic, seed-driven description of every fault source. All
/// probabilities default to zero and no windows are scheduled, so a
/// default-constructed plan is a strict no-op: `enabled()` is false and the
/// replay path must not consume a single extra RNG draw.
struct FaultPlan {
  /// Explicitly scheduled windows (crash schedules for reproducible
  /// experiments; merged with the probabilistic ones below).
  std::vector<FaultWindow> scheduled;

  /// Per-MDS, per-epoch probability of a fail-stop crash. The crash instant
  /// is uniform inside the epoch; the outage lasts `crash_recovery` scaled
  /// by an exponential draw (mean 1.0).
  double crash_prob = 0.0;
  sim::SimTime crash_recovery = sim::seconds(2);

  /// Per-MDS, per-epoch probability of a straggler window (transient
  /// overload / GC pause / slow disk): service times multiply by
  /// `straggler_slow` for `straggler_duration` scaled by an exponential
  /// draw (mean 1.0).
  double straggler_prob = 0.0;
  double straggler_slow = 4.0;
  sim::SimTime straggler_duration = sim::seconds(1);

  /// Per one-way message probabilities, applied inside net::Network.
  double rpc_loss_prob = 0.0;
  double rpc_corrupt_prob = 0.0;

  std::uint64_t seed = 2026;

  /// True when any fault source can fire. Gate *every* fault code path on
  /// this so a disabled plan leaves the simulator bit-identical.
  [[nodiscard]] bool enabled() const noexcept {
    return !scheduled.empty() || crash_prob > 0.0 || straggler_prob > 0.0 ||
           rpc_loss_prob > 0.0 || rpc_corrupt_prob > 0.0;
  }
};

/// Client-side per-RPC timeout/retry policy: capped exponential backoff with
/// bounded uniform jitter. Attempt `a` (1-based) backs off for
/// `min(cap, base * 2^(a-1))` scaled into `[1-jitter, 1+jitter)`.
struct RetryPolicy {
  std::uint32_t max_retries = 5;            ///< retry budget per visit
  sim::SimTime timeout = sim::millis(5);    ///< detection delay per attempt
  sim::SimTime backoff_base = sim::micros(200);
  sim::SimTime backoff_cap = sim::millis(50);
  double jitter_frac = 0.2;

  /// Deterministic backoff for the given 1-based attempt; draws exactly one
  /// value from `rng` when `jitter_frac > 0`.
  [[nodiscard]] sim::SimTime backoff_for(std::uint32_t attempt,
                                         common::Xoshiro256& rng) const;
};

/// Expands a `FaultPlan` into concrete per-epoch fault windows. Sampling is
/// keyed by (seed, epoch, mds) through an independent SplitMix64 stream, so
/// the schedule is identical for every balancer / replay that shares the
/// plan, regardless of how many epochs the run lasts or in which order the
/// queries happen.
class FaultInjector {
 public:
  FaultInjector(const FaultPlan& plan, std::uint32_t mds_count);

  [[nodiscard]] bool enabled() const noexcept { return plan_.enabled(); }
  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  /// All probabilistic windows that open inside epoch `epoch`
  /// (`[start, start + length)`), plus any scheduled windows whose start
  /// falls in that interval. Call once per epoch, in any order.
  [[nodiscard]] std::vector<FaultWindow> windows_for_epoch(
      std::uint32_t epoch, sim::SimTime start, sim::SimTime length) const;

 private:
  FaultPlan plan_;
  std::uint32_t mds_count_;
};

}  // namespace origami::fault
