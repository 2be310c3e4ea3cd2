#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "origami/common/flags.hpp"
#include "origami/common/status.hpp"
#include "origami/cost/cost_model.hpp"
#include "origami/fault/fault.hpp"
#include "origami/mds/data_cluster.hpp"
#include "origami/mds/mds_server.hpp"
#include "origami/net/network.hpp"
#include "origami/recovery/journal.hpp"
#include "origami/sim/time.hpp"

namespace origami::engine {
class Observer;
}  // namespace origami::engine

namespace origami::cluster {

struct ReplayOptions {
  std::uint32_t mds_count = 5;
  /// Closed-loop client threads (each keeps one request in flight).
  std::uint32_t clients = 50;
  mds::MdsServerParams mds_params;
  cost::CostParams cost_params;
  net::NetworkParams net_params;

  bool cache_enabled = true;
  std::uint32_t cache_depth = 3;

  sim::SimTime epoch_length = sim::seconds(10);
  /// Epochs excluded from steady-state metrics while rebalancing converges.
  std::uint32_t warmup_epochs = 6;

  /// Replay the trace repeatedly until `time_limit` (for long time-series
  /// experiments like Fig. 7). 0 = stop when the trace is exhausted.
  bool loop_trace = false;
  sim::SimTime time_limit = 0;

  /// Oracle lookahead handed to the balancer each epoch (Meta-OPT only).
  std::uint64_t lookahead_ops = 60'000;

  /// Back each MDS with a real fragmented-LSM inode store and execute
  /// KV reads/writes during replay (integration realism; adds host time).
  bool kv_backing = false;
  /// Directory for the real per-MDS WAL files (`mds_<i>.wal`) when
  /// `kv_backing` runs with `CommitMode::kAsync`: the group-commit fsyncs
  /// are then *measured* against real files. Required (and validated
  /// writable) for that combination; ignored otherwise.
  std::string kv_wal_dir;

  bool data_path = false;
  mds::DataClusterParams data_params;

  /// Fault injection (crashes, stragglers, RPC loss) and the client-side
  /// retry policy. The default plan is disabled; with it, the replay is
  /// bit-identical to the fault-free simulator.
  fault::FaultPlan faults;
  fault::RetryPolicy retry;

  /// Durable-recovery model: journaling costs, crash-replay pricing, the
  /// two-phase migration protocol, and epoch fencing. Only consulted when
  /// `faults` is enabled, so the clean path is untouched.
  recovery::RecoveryParams recovery;

  /// Arrival-process spec from the shared `--arrival` flag:
  /// `<name>[:k=v,...]` against `wl::ArrivalRegistry::builtin()` (closed,
  /// open, paced, trace, bursty, tenant — `--list-arrivals` catalogues
  /// them); `open:rate=R` is the Poisson open loop for latency-vs-load
  /// curves. Empty runs the closed loop. Validated by `options_from_flags`
  /// (unknown name/param/value → usage + exit 2); `EngineCore` throws
  /// `std::invalid_argument` on a bad programmatic spec.
  std::string arrival;

  /// Balancing-policy spec from the shared `--policy` flag:
  /// `<name>[:k=v,...]` against `policy::Registry::builtin()`. The engine
  /// itself never reads this — callers that construct their balancer
  /// through the registry (origami_sim, the benches) resolve it; callers
  /// passing a `Balancer` directly ignore it. Validation (unknown name /
  /// unknown param → usage + exit 2) happens at resolution.
  std::string policy;

  /// Cross-layer engine observers (engine/observer.hpp), subscribed in
  /// order after the balancer itself (which is auto-attached when it
  /// implements `engine::Observer`). Non-owning; hooks fire from the DES
  /// loop, so subscription never perturbs the simulated clock — a run with
  /// observers is bit-identical to one without.
  std::vector<engine::Observer*> observers;

  std::uint64_t seed = 11;
};

/// Parses "mds@start_ms+dur_ms[,mds@start_ms+dur_ms...]" into scheduled
/// crash windows. `kInvalidArgument` on an entry that does not read whole,
/// names an MDS at or above `mds_count`, or has a negative start or
/// duration.
common::Result<std::vector<fault::FaultWindow>> parse_crash_schedule(
    const std::string& spec, std::uint32_t mds_count);

/// Applies the shared command-line vocabulary (--mds, --clients, --epoch-ms,
/// --cache*, --data-path, --kv-backing, every --fault-* / --retry-* /
/// --commit-* knob) on top of `base`. Flags that are absent leave the
/// corresponding `base` value untouched, so callers keep their own defaults
/// (origami_sim's 500 ms epochs, the benches' paper presets) while sharing
/// one parser.
///
/// Returns `kInvalidArgument` listing every `--fault-*` / `--retry-*` /
/// `--commit-*` flag this parser does not recognize (a typoed fault knob
/// must fail fast, not silently run the fault-free configuration), for
/// out-of-vocabulary `--commit-mode` values, and for a numeric value that
/// does not read whole (common::FlagReader) or is out of range: zero MDSs,
/// clients or epoch length, or a probability outside [0, 1].
common::Result<ReplayOptions> options_from_flags(const common::Flags& flags,
                                                 ReplayOptions base = {});

/// Whether a flag name (without dashes) is in the prefixed vocabulary
/// `options_from_flags` owns: fault-*, retry-*, commit-*, arrival*, trace-*.
[[nodiscard]] bool is_shared_flag(const std::string& name);

}  // namespace origami::cluster
