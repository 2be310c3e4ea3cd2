#pragma once

#include <cstdint>
#include <limits>

namespace origami::sim {

/// Virtual simulation time in nanoseconds. All throughput/latency results
/// in this repository are measured on this clock, which makes every
/// experiment deterministic and seed-reproducible.
using SimTime = std::int64_t;

inline constexpr SimTime kNanosecond = 1;
inline constexpr SimTime kMicrosecond = 1000;
inline constexpr SimTime kMillisecond = 1000 * kMicrosecond;
inline constexpr SimTime kSecond = 1000 * kMillisecond;
/// The longest span, in whole milliseconds, a SimTime holds.
inline constexpr SimTime kMaxMillis =
    std::numeric_limits<SimTime>::max() / kMillisecond;

constexpr SimTime micros(double us) noexcept {
  return static_cast<SimTime>(us * static_cast<double>(kMicrosecond));
}
constexpr SimTime millis(double ms) noexcept {
  return static_cast<SimTime>(ms * static_cast<double>(kMillisecond));
}
constexpr SimTime seconds(double s) noexcept {
  return static_cast<SimTime>(s * static_cast<double>(kSecond));
}
constexpr double to_seconds(SimTime t) noexcept {
  return static_cast<double>(t) / static_cast<double>(kSecond);
}
constexpr double to_micros(SimTime t) noexcept {
  return static_cast<double>(t) / static_cast<double>(kMicrosecond);
}

}  // namespace origami::sim
