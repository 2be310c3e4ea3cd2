#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "origami/cluster/metrics.hpp"
#include "origami/common/histogram.hpp"
#include "origami/cost/cost_model.hpp"
#include "origami/fault/fault.hpp"
#include "origami/fs/origami_fs.hpp"
#include "origami/recovery/journal.hpp"
#include "origami/sim/time.hpp"
#include "origami/wl/trace.hpp"

namespace origami::fs {

/// Handle the live engine passes to the per-epoch hook, so a live policy
/// (policy::LivePolicy) can consult shard health and report its two-phase
/// transitions back into the shared journaling layer. The engine owns the
/// journals; the policy only narrates what it is doing.
class LiveFaultContext {
 public:
  virtual ~LiveFaultContext() = default;

  /// True when `shard` is inside a crash window right now.
  [[nodiscard]] virtual bool shard_down(std::uint32_t shard) const = 0;

  /// Two-phase migration narration: PREPARE before any dirent moves, then
  /// exactly one of COMMIT (ownership flipped) or ABORT (rolled back).
  virtual void record_prepare(Ino subtree, std::uint32_t from,
                              std::uint32_t to) = 0;
  virtual void record_commit(Ino subtree, std::uint32_t from,
                             std::uint32_t to) = 0;
  virtual void record_abort(Ino subtree, std::uint32_t from,
                            std::uint32_t to) = 0;
};

/// Configuration of one live replay.
///
/// The live service runs a cost-model-driven virtual clock (nanoseconds,
/// like the simulator): every request is priced with `cost::CostModel`
/// Eq. 2 against the namespace it actually touches, per-shard logical
/// clocks advance by the charge, and per-client ready times close the
/// loop. Fault-plan durations (`crash_recovery`, window bounds,
/// `commit_window`, ...) are therefore measured in *nanoseconds*;
/// straggler windows multiply service times and the retry policy's
/// timeout/backoff are charged to the issuing client's clock.
struct LiveReplayOptions {
  /// Operations between `on_epoch` firings (0 = the hook never fires).
  std::uint64_t epoch_ops = 0;
  /// Balancing hook; returns the number of migrations it performed.
  std::function<std::uint64_t(OrigamiFs&, LiveFaultContext&)> on_epoch;

  /// Fault sources, sampled per 500 ms interval of virtual time — the same
  /// deterministic (seed, epoch, shard) streams as the simulator.
  fault::FaultPlan faults;
  fault::RetryPolicy retry;
  /// Journaling model, including the commit mode. With
  /// `CommitMode::kAsync`, `commit_window` is measured on the live virtual
  /// clock (nanoseconds): the serving shard flushes its own journal when
  /// the oldest buffered record ages past it, and a sweep at every sync
  /// window catches shards that stopped receiving traffic.
  recovery::RecoveryParams recovery;

  // --- serving plane -------------------------------------------------------

  /// Shard-serving worker threads. Shard `s` is served by worker
  /// `s % shard_threads`; each worker owns its shards' journals, latency
  /// accumulators and busy clocks exclusively, so output is byte-identical
  /// at any value (deterministic per-shard partials merged in shard order).
  std::uint32_t shard_threads = 1;
  /// Closed-loop client issuers: op `i` belongs to client `i % clients`,
  /// which issues its next request the instant the previous one completes.
  std::uint32_t clients = 32;
  /// When > 0, switches to an open loop issuing at this rate (ops/sec,
  /// fixed inter-arrival gap) regardless of completions — queueing delay
  /// then shows up in the latency distribution.
  double issue_rate = 0.0;
  /// Arrival-process spec (`--arrival=<name>[:k=v,...]` against
  /// `wl::ArrivalRegistry::builtin()`). Overrides the two legacy fields
  /// above: empty keeps their mapping (`issue_rate > 0` → the fixed-gap
  /// "paced" process, otherwise the "closed" loop). The live engine stamps
  /// each op's arrival on its nanosecond virtual clock through the policy;
  /// randomized processes (bursty) draw from a policy- or engine-owned
  /// seeded stream, so output stays byte-identical at any
  /// `shard_threads`.
  std::string arrival;
  /// Service-time parameters for the virtual clock.
  cost::CostParams cost;
};

/// Statistics of one live replay.
struct LiveReplayStats {
  std::uint64_t executed = 0;        ///< service calls issued
  std::uint64_t failed = 0;          ///< calls that returned an error
  std::uint64_t epochs = 0;          ///< balancing epochs fired
  std::uint64_t migrations = 0;      ///< subtree moves performed
  /// Final per-shard dirent-operation counts (lookups + mutations).
  std::vector<std::uint64_t> shard_ops;
  /// Imbalance factor of shard_ops.
  double shard_imbalance = 0.0;

  // --- virtual-clock serving metrics ---------------------------------------

  /// Virtual makespan: the largest shard/client completion time (ns).
  sim::SimTime makespan = 0;
  /// executed / makespan, in ops per virtual second (0 if makespan is 0).
  double throughput_ops = 0.0;
  /// Client-observed request latencies (ns): completion + network − arrival,
  /// including retry timeouts/backoffs and fencing bounces. Quantiles via
  /// `latency.quantile(0.99)` etc.
  common::LatencyHistogram latency;
  /// Per-shard busy time (ns of service charged) and served-request counts,
  /// accumulated by the serving workers and merged in shard order.
  std::vector<sim::SimTime> shard_busy;
  std::vector<std::uint64_t> shard_served;

  /// Fault-injection accounting, same meaning as in the simulator; all
  /// zero when the fault plan is disabled (time counters are virtual ns).
  cluster::RobustnessStats faults;
};

/// Replays a generated/imported trace against the live OrigamiFS service.
///
/// Trace semantics are adapted to a real mutable namespace: every op's
/// ancestor directories are materialised on first use; `create` upserts
/// (recreates after unlink), `unlink`/`rmdir` ignore already-gone targets,
/// `rename` skips occupied destinations. Every `epoch_ops` operations the
/// `on_epoch` hook runs (wire a registry policy's live form,
/// `policy::LivePolicy::on_epoch`, in, or leave it null for an unbalanced
/// run).
///
/// Execution is split across threads: a serial issuer resolves and mutates
/// the namespace (preserving the exact seed op order), prices each request
/// on the cost-model clock, and streams fully-stamped per-shard tasks over
/// bounded MPMC lanes to `shard_threads` serving workers, which own the
/// measurement plane (latency histograms, busy clocks) and the durability
/// plane (journal appends and group-commit flushes). Per-shard partials
/// merge in shard order, so the output is byte-identical at any
/// `shard_threads` value.
///
/// With a fault plan armed the replay exercises the same robustness layers
/// as the simulator: crash windows fail the dead shard's fragments over to
/// survivors (and hand them back on recovery), straggler windows stretch
/// service times, per-shard journals record every acknowledged mutation and
/// migration phase, stale ownership epochs fence cached routes (bounced
/// clients pay an extra RTT), and RPC loss runs the bounded retry loop with
/// timeout + backoff charged to the client's clock.
LiveReplayStats replay_on_live(const wl::Trace& trace, OrigamiFs& fsys,
                               const LiveReplayOptions& options);

}  // namespace origami::fs
