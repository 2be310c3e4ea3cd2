#include "origami/fault/fault.hpp"

#include <algorithm>
#include <cmath>

namespace origami::fault {

namespace {

/// Independent deterministic stream for one (seed, epoch, mds) cell. The
/// constants decorrelate the three coordinates; SplitMix64 then whitens.
common::SplitMix64 cell_stream(std::uint64_t seed, std::uint32_t epoch,
                               std::uint32_t mds) {
  const std::uint64_t key = seed ^
                            (static_cast<std::uint64_t>(epoch) * 0x9e3779b97f4a7c15ULL) ^
                            (static_cast<std::uint64_t>(mds) * 0xd1b54a32d192ed03ULL);
  return common::SplitMix64(key);
}

double unit(common::SplitMix64& sm) {
  return static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
}

/// Exp(1) draw with a floor so durations never collapse to zero.
double exp1(common::SplitMix64& sm) {
  const double u = unit(sm);
  double v = -std::log(1.0 - u);
  return std::max(0.05, v);
}

}  // namespace

sim::SimTime RetryPolicy::backoff_for(std::uint32_t attempt,
                                      common::Xoshiro256& rng) const {
  const std::uint32_t exponent = attempt > 0 ? attempt - 1 : 0;
  sim::SimTime delay = backoff_base;
  for (std::uint32_t i = 0; i < exponent && delay < backoff_cap; ++i) {
    delay *= 2;
  }
  delay = std::min(delay, backoff_cap);
  if (jitter_frac > 0.0) {
    const double u = rng.uniform_double();  // [0, 1)
    const double scale = 1.0 + jitter_frac * (2.0 * u - 1.0);
    delay = static_cast<sim::SimTime>(static_cast<double>(delay) * scale);
  }
  return std::max<sim::SimTime>(0, delay);
}

FaultInjector::FaultInjector(const FaultPlan& plan, std::uint32_t mds_count)
    : plan_(plan), mds_count_(mds_count) {}

std::vector<FaultWindow> FaultInjector::windows_for_epoch(
    std::uint32_t epoch, sim::SimTime start, sim::SimTime length) const {
  std::vector<FaultWindow> out;
  if (!enabled() || length <= 0) return out;

  const sim::SimTime end = start + length;
  for (const FaultWindow& w : plan_.scheduled) {
    if (w.from >= start && w.from < end && w.mds < mds_count_) out.push_back(w);
  }

  for (std::uint32_t mds = 0; mds < mds_count_; ++mds) {
    auto sm = cell_stream(plan_.seed, epoch, mds);
    // Fixed draw order keeps the schedule stable when only one probability
    // is enabled: crash-gate, crash-offset, crash-duration, straggler-gate,
    // straggler-offset, straggler-duration.
    const double crash_gate = unit(sm);
    const double crash_off = unit(sm);
    const double crash_scale = exp1(sm);
    const double strag_gate = unit(sm);
    const double strag_off = unit(sm);
    const double strag_scale = exp1(sm);

    if (plan_.crash_prob > 0.0 && crash_gate < plan_.crash_prob) {
      FaultWindow w;
      w.mds = mds;
      w.kind = FaultKind::kCrash;
      w.from = start + static_cast<sim::SimTime>(
                           crash_off * static_cast<double>(length));
      w.until = w.from + std::max<sim::SimTime>(
                             sim::kMicrosecond,
                             static_cast<sim::SimTime>(
                                 static_cast<double>(plan_.crash_recovery) *
                                 crash_scale));
      out.push_back(w);
    }
    if (plan_.straggler_prob > 0.0 && strag_gate < plan_.straggler_prob) {
      FaultWindow w;
      w.mds = mds;
      w.kind = FaultKind::kStraggler;
      w.slow_factor = std::max(1.0, plan_.straggler_slow);
      w.from = start + static_cast<sim::SimTime>(
                           strag_off * static_cast<double>(length));
      w.until = w.from + std::max<sim::SimTime>(
                             sim::kMicrosecond,
                             static_cast<sim::SimTime>(
                                 static_cast<double>(plan_.straggler_duration) *
                                 strag_scale));
      out.push_back(w);
    }
  }

  std::stable_sort(out.begin(), out.end(),
                   [](const FaultWindow& a, const FaultWindow& b) {
                     return a.from < b.from;
                   });
  return out;
}

}  // namespace origami::fault
