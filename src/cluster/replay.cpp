// replay.cpp — thin composition of the layered request-execution engine.
//
// The former 1,200-line Replayer monolith now lives in five subsystems:
//   plan       per-op visit planning (RequestPlanner::build_plan)
//   exec       in-flight slot state machine (hop/advance/finish, issue loops)
//   failover   fault delivery, retries, crash windows, recovery pricing
//              (the crash protocol itself is the shared fault_plane)
//   migration  two-phase PREPARE/COMMIT/ABORT driver
//   stats      issue accounting, epoch snapshots, summary + CSV emission
// This file only wires them around one EngineCore and drives the epoch loop.

#include "origami/cluster/replay.hpp"

#include <algorithm>
#include <cassert>

#include "origami/cluster/exec.hpp"
#include "origami/cluster/failover.hpp"
#include "origami/cluster/migration.hpp"
#include "origami/cluster/plan.hpp"
#include "origami/cluster/stats.hpp"

namespace origami::cluster {

namespace {

class Replayer {
 public:
  Replayer(const wl::Trace& trace, const ReplayOptions& options,
           Balancer& balancer)
      : core_(trace, options, balancer),
        planner_(core_.trace.tree, core_.partition, core_.cache, core_.model,
                 core_.opt.cost_params),
        exec_(core_, planner_),
        failover_(core_),
        migration_(core_) {
    exec_.bind(failover_);
    failover_.bind(exec_);
  }

  RunResult run() {
    core_.result.balancer_name = core_.balancer.name();
    core_.result.arrival_name = core_.arrival->name();
    core_.result.mds_count = core_.opt.mds_count;

    if (core_.faults_on) failover_.schedule_epoch_faults(0);
    exec_.start();
    core_.queue.schedule_after(core_.opt.epoch_length,
                               [this] { epoch_boundary(); });
    core_.queue.run();

    finalize_run(core_);
    return std::move(core_.result);
  }

 private:
  void epoch_boundary() {
    // Materialise the next epoch's fault windows before applying any
    // migration decisions: their events queue ahead of this boundary's
    // COMMITs, and byte-identity rests on that order at equal instants.
    if (core_.faults_on) failover_.schedule_epoch_faults(core_.epoch_index + 1);

    const EpochSnapshot snap = begin_epoch_snapshot(core_);
    EpochMetrics em = epoch_metrics_from(core_, snap);
    core_.observers.epoch_begin(snap);

    const auto decisions =
        core_.balancer.rebalance(snap, core_.trace.tree, core_.partition);
    core_.observers.decisions(core_.epoch_index, decisions);
    for (const MigrationDecision& d : decisions) migration_.apply(d, em);
    core_.result.epochs.push_back(std::move(em));
    if (!core_.observers.empty()) {
      core_.observers.epoch_end(core_.result.epochs.back(),
                                epoch_counter_delta());
    }

    std::fill(core_.dir_stats.begin(), core_.dir_stats.end(), DirEpochStats{});
    ++core_.epoch_index;
    core_.last_epoch_at = core_.queue.now();
    if (core_.active_clients > 0) {
      core_.queue.schedule_after(core_.opt.epoch_length,
                                 [this] { epoch_boundary(); });
    }
  }

  /// This epoch's counter movement: the running aggregates minus the
  /// watermark captured at the previous boundary. Two-phase COMMITs that
  /// land after the boundary are charged to the epoch they complete in.
  engine::EpochCounters epoch_counter_delta() {
    const RobustnessStats& f = core_.result.faults;
    engine::EpochCounters d;
    d.epoch = core_.epoch_index;
    d.completed_ops = core_.result.completed_ops - seen_completed_;
    d.retries = f.retries - seen_.retries;
    d.timeouts = f.timeouts - seen_.timeouts;
    d.failed_ops = f.failed_ops - seen_.failed_ops;
    d.fenced_rejections = f.fenced_rejections - seen_.fenced_rejections;
    d.prepared_migrations = f.prepared_migrations - seen_.prepared_migrations;
    d.committed_migrations =
        f.committed_migrations - seen_.committed_migrations;
    d.aborted_migrations = f.aborted_migrations - seen_.aborted_migrations;
    d.crashes = f.crashes - seen_.crashes;
    d.failovers = f.failovers - seen_.failovers;
    seen_ = f;
    seen_completed_ = core_.result.completed_ops;
    return d;
  }

  EngineCore core_;
  RequestPlanner planner_;
  ExecEngine exec_;
  FailoverEngine failover_;
  MigrationEngine migration_;
  /// Counter watermarks from the previous epoch boundary (observer deltas).
  RobustnessStats seen_;
  std::uint64_t seen_completed_ = 0;
};

}  // namespace

RunResult replay_trace(const wl::Trace& trace, const ReplayOptions& options,
                       Balancer& balancer) {
  assert(!trace.ops.empty());
  Replayer replayer(trace, options, balancer);
  return replayer.run();
}

}  // namespace origami::cluster
