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
  /// clock (nanoseconds): a shard flushes its own journal when the oldest
  /// buffered record ages past it, and a sweep at every sync window
  /// catches shards that stopped receiving traffic.
  recovery::RecoveryParams recovery;

  /// Read by nothing: the plane serves every request on the calling
  /// thread. It stays only because the repository benchmark
  /// (bench/benchmark/origami_bench.cpp) still sets it, and goes with the
  /// next change to that benchmark.
  std::uint32_t shard_threads = 1;
  /// Closed-loop client issuers: op `i` belongs to client `i % clients`,
  /// which issues its next request the instant the previous one completes.
  std::uint32_t clients = 32;
  /// Arrival-process spec (`--arrival=<name>[:k=v,...]` against
  /// `wl::ArrivalRegistry::builtin()`); `paced:rate=R` issues at a fixed
  /// gap regardless of completions, so queueing delay shows up in the
  /// latency distribution. Empty runs the closed loop. The live engine
  /// stamps each op's arrival on its nanosecond virtual clock through the
  /// policy; randomized processes (bursty) draw from a policy- or
  /// engine-owned seeded stream, so output is a function of the seeds.
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
  /// Per-shard busy time (ns of service charged) and served-request counts.
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
/// (recreates after unlink), `unlink` ignores already-gone targets, and
/// `rmdir` is skipped because later ops keep using the directory. No
/// entry is ever renamed: the trace tree keys every later op by node, so
/// a `rename` is modelled as a setattr on its source entry. Every
/// `epoch_ops` operations the `on_epoch` hook runs (wire a registry
/// policy's live form, `policy::LivePolicy::on_epoch`, in, or leave it null
/// for an unbalanced run).
///
/// The replay runs on the calling thread and mutates the namespace in the
/// exact seed op order. It addresses each request by (parent inode, name),
/// taking the parent's inode from those it cached when it created each
/// directory, so a request costs one dirent read rather than one per path
/// component. It prices each request on the cost-model clock and records
/// it there and then: the latency histogram, the home shard's busy time
/// and, for a faulted write, the journal append and group-commit flush.
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
