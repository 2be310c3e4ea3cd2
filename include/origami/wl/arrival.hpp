#pragma once

// The arrival plane: *when* requests enter the system, extracted from the
// engines that execute them. Mirrors the balancer-policy registry
// (policy/registry.hpp): every arrival process is a named `ArrivalEntry`
// constructed from a `name[:key=value,...]` spec string with declared
// params and strict validation, resolved from the shared `--arrival` flag
// (`--list-arrivals` prints the catalogue).
//
// Both execution planes consume one implementation:
//   - the epoch DES (`cluster::ExecEngine`) schedules issue events on the
//     simulated clock and chains closed-loop issues off completions;
//   - the live serving plane (`fs::LiveEngine`) stamps each op's arrival
//     on its nanosecond virtual clock before pricing it.
// The policy answers two questions — "is this a closed loop?" and "when is
// the next open-loop arrival?" — and the engines own everything else, so
// the legacy closed/open loops run byte-identically through this seam
// (tests/arrival_test.cpp holds the pre-refactor goldens).
//
// This header lives in `wl` (not `policy`): arrivals are a property of the
// workload, and both `cluster` and `fs` may link it without a layering
// cycle (`policy` depends on `cluster`, which depends on `wl`).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "origami/common/rng.hpp"
#include "origami/common/spec.hpp"
#include "origami/common/status.hpp"
#include "origami/sim/time.hpp"
#include "origami/wl/trace.hpp"

namespace origami::wl {

/// One request-arrival process. Implementations are stateful sequential
/// generators: engines ask for arrivals in op order, exactly once per op.
/// Policies either run *closed-loop* (a fixed population of clients, each
/// keeping one request in flight — the next issue chains off a completion,
/// so the policy only places the initial stagger) or *open-loop* (arrivals
/// are a time process independent of completions — the policy emits the
/// next absolute arrival time).
class ArrivalPolicy {
 public:
  virtual ~ArrivalPolicy() = default;

  [[nodiscard]] virtual const char* name() const = 0;

  /// Closed-loop protocol? True: the engine runs one driver per client and
  /// re-issues on completion; `stagger` places the initial arrivals and
  /// `next_arrival` is never called. False: the engine runs one arrival
  /// driver fed by `first_arrival`/`next_arrival`.
  [[nodiscard]] virtual bool closed_loop() const { return false; }

  /// Closed loop only: initial arrival time of client `c`'s first request.
  /// The historical 1 µs stagger breaks lockstep between identical clients.
  [[nodiscard]] virtual sim::SimTime stagger(std::uint32_t client) const {
    return static_cast<sim::SimTime>(client) * sim::kMicrosecond;
  }

  /// Open loop only: absolute arrival time of op 0.
  [[nodiscard]] virtual sim::SimTime first_arrival() { return 0; }

  /// Open loop only: absolute arrival time of op `index` (>= 1), given the
  /// previous op's arrival `prev`. `rng` is the *engine-owned* stream —
  /// the legacy Poisson open loop draws its gaps from the same
  /// `jitter_rng` as service jitter, and byte-identity requires the draw
  /// to stay on that stream at the same call point. Policies with private
  /// randomness (bursty) carry their own seeded generator and leave `rng`
  /// untouched.
  [[nodiscard]] virtual sim::SimTime next_arrival(std::uint64_t index,
                                                  sim::SimTime prev,
                                                  common::Xoshiro256& rng) = 0;

  /// Open loop only: the client/tenant lane op `index` is attributed to
  /// (network source hashing, per-tenant accounting). The legacy open loop
  /// pinned everything to client 0.
  [[nodiscard]] virtual std::uint32_t client_of(std::uint64_t index) const {
    (void)index;
    return 0;
  }
};

// -------------------------------------------------------------- registry --

/// Everything an arrival factory may draw on. `trace` feeds the
/// trace-timestamp replay policy; it is null when validation runs without
/// a workload in hand.
struct ArrivalContext {
  const Trace* trace = nullptr;
  std::uint32_t clients = 0;  ///< the engine's client population
};

using ArrivalFactory = std::function<common::Result<
    std::unique_ptr<ArrivalPolicy>>(const common::SpecValues&,
                                    const ArrivalContext&)>;
/// Context-free value validation (ranges, positivity), run by both
/// `validate` and `make` so a CLI rejects `--arrival=open:rate=-1` with
/// usage + exit 2 before any engine is built.
using ArrivalCheck =
    std::function<common::Status(const common::SpecValues&)>;

/// One registered arrival process.
struct ArrivalEntry {
  std::string name;
  std::string summary;
  std::string protocol;  ///< "closed-loop" or "open-loop"
  /// Needs `ArrivalContext::trace` with per-op timestamps (trace replay).
  bool needs_timed_trace = false;
  std::vector<common::ParamDecl> params;
  ArrivalCheck check;  ///< may be null: no value constraints
  ArrivalFactory make;
};

/// The arrival-process registry. `builtin()` carries every process shipped
/// in-tree; embedders may copy it and `add` their own entries.
class ArrivalRegistry {
 public:
  /// All in-tree arrival processes: closed, open, paced, trace, bursty,
  /// tenant.
  static const ArrivalRegistry& builtin();

  void add(ArrivalEntry entry) { entries_.push_back(std::move(entry)); }
  [[nodiscard]] const std::vector<ArrivalEntry>& entries() const {
    return entries_;
  }

  /// Parses `spec`, checks the name, every key and value against the
  /// entry's declared params (common/spec.hpp), and every value against
  /// the entry's constraints. OK iff `make` with the same spec would not
  /// fail on the spec itself (it may still fail on missing context, e.g.
  /// `trace` without a timed workload).
  [[nodiscard]] common::Status validate(const std::string& spec) const;

  /// Parse + validate + construct in one step.
  [[nodiscard]] common::Result<std::unique_ptr<ArrivalPolicy>> make(
      const std::string& spec, const ArrivalContext& ctx) const;

  /// Human-readable catalogue: one block per process with its summary,
  /// protocol and parameters (key=default) — `--list-arrivals`.
  [[nodiscard]] std::string describe() const;

 private:
  std::vector<ArrivalEntry> entries_;
};

/// The arrival process both engines run: `spec` through the builtin
/// registry, or the closed loop when `spec` is empty. Throws
/// `std::invalid_argument` on a spec the registry rejects (CLIs validate
/// first and exit 2; programmatic callers get the error loudly, not a
/// silently different workload).
std::unique_ptr<ArrivalPolicy> resolve_arrival(const std::string& spec,
                                               const ArrivalContext& ctx);

}  // namespace origami::wl
