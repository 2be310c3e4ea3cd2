#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "origami/cluster/balancer.hpp"
#include "origami/cluster/fault_plane.hpp"
#include "origami/cluster/metrics.hpp"
#include "origami/cluster/options.hpp"
#include "origami/cluster/plan.hpp"
#include "origami/engine/observer.hpp"
#include "origami/common/rng.hpp"
#include "origami/mds/data_cluster.hpp"
#include "origami/mds/inode_store.hpp"
#include "origami/mds/mds_server.hpp"
#include "origami/net/network.hpp"
#include "origami/sim/event_queue.hpp"
#include "origami/wl/arrival.hpp"

namespace origami::cluster {

class FailoverEngine;

/// One request slot in the in-flight pool.
struct InFlight {
  Plan plan;
  std::size_t next_visit = 0;
  sim::SimTime issued = 0;
  std::uint32_t client = 0;
  bool in_use = false;
  /// Failed delivery attempts of the *current* visit (fault injection);
  /// reset on every successful arrival.
  std::uint32_t attempts = 0;
};

/// The state every execution-engine layer shares: the simulated cluster
/// (servers, network, partition, caches, fault plane), the event queue, the
/// in-flight pool and the accumulating result. Subsystems (`RequestPlanner`,
/// `ExecEngine`, `FailoverEngine`, `MigrationEngine`, the stats helpers)
/// hold a reference to one core and never own state behind each other's
/// backs; `Replayer` in replay.cpp is the thin composition of all of them.
struct EngineCore {
  EngineCore(const wl::Trace& trace_in, const ReplayOptions& options,
             Balancer& balancer_in);

  const wl::Trace& trace;
  ReplayOptions opt;
  Balancer& balancer;
  cost::CostModel model;
  net::Network network;
  mds::PartitionMap partition;
  mds::NearRootCache cache;
  mds::DataCluster data;
  common::Xoshiro256 jitter_rng;
  /// The request-arrival process (wl/arrival.hpp), resolved from
  /// `opt.arrival` (empty: the closed loop of `opt.clients` clients).
  /// `ExecEngine` drives every issue through it; closed-loop policies
  /// chain re-issues off completions, open-loop policies emit the next
  /// arrival time ("open" draws from `jitter_rng`, so the shared-stream
  /// draw order is part of the byte-identity contract).
  std::unique_ptr<wl::ArrivalPolicy> arrival;
  const bool faults_on;
  /// The crash protocol shared with the live engine: fault injector, one
  /// journal per MDS (only when `faults_on`) and the failover log; sync
  /// mode (`async_commit()` false) stays bit-identical to earlier trees.
  FaultPlane fault_plane;
  std::vector<mds::MdsServer> servers;
  std::vector<std::unique_ptr<mds::InodeStore>> stores;  // when kv_backing

  /// Durable-recovery state (populated only when `faults_on`).
  /// Per-directory time until which the fragment is unavailable while its
  /// absorber replays the crashed owner's journal; arrivals park until then.
  std::vector<sim::SimTime> recovering_until;
  std::shared_ptr<recovery::RecoveryLedger> ledger;
  std::uint64_t next_op_id = 0;

  sim::EventQueue queue;
  std::vector<InFlight> pool;
  std::vector<std::size_t> free_slots;

  std::size_t cursor = 0;
  /// Run-wide issue sequence number (feeds `ArrivalPolicy::next_arrival`
  /// indices and the observer bus's `ArrivalEvent`s).
  std::uint64_t issued_ops = 0;
  std::uint32_t active_clients = 0;
  std::uint32_t epoch_index = 0;
  sim::SimTime last_epoch_at = 0;
  sim::SimTime last_completion = 0;

  std::vector<DirEpochStats> dir_stats;
  RunResult result;

  /// Cross-layer observer fan-out (engine/observer.hpp): the balancer is
  /// auto-attached when it implements `engine::Observer`, then every
  /// `opt.observers` entry in order. All dispatch happens on the DES
  /// thread; an empty bus costs one branch per seam event.
  engine::ObserverBus observers;

  [[nodiscard]] fsns::NodeId fence_dir(fsns::NodeId node) const {
    return cluster::fence_dir(trace.tree, node);
  }
  [[nodiscard]] std::uint32_t fence_epoch(fsns::NodeId node) const {
    return cluster::fence_epoch(trace.tree, partition, node);
  }
  [[nodiscard]] bool trace_done() const {
    if (opt.time_limit > 0 && queue.now() >= opt.time_limit) return true;
    return cursor >= trace.ops.size() && !opt.loop_trace;
  }
  std::size_t alloc_slot();
};

/// The in-flight request state machine: issuance through the arrival
/// plane (`core.arrival`), the per-visit `hop`/`advance` walk across MDSs,
/// completion-time fence re-checks and final accounting. Fault delivery
/// and retries are delegated to the bound `FailoverEngine`; with faults
/// disabled that engine is never consulted and the walk is the bit-exact
/// clean path.
class ExecEngine {
 public:
  ExecEngine(EngineCore& core, RequestPlanner& planner)
      : core_(core), planner_(planner) {}
  void bind(FailoverEngine& failover) { failover_ = &failover; }

  /// Schedules the initial arrivals (one open-loop driver or `opt.clients`
  /// staggered closed-loop clients — the arrival policy decides).
  void start();

  /// Closed-loop re-issue for `client` (chained off a completion by
  /// `finish` and the failover path).
  void issue_for_client(std::uint32_t client);
  void hop(std::size_t slot);
  /// Post-service continuation of `hop`: advances to the next visit or
  /// schedules the final reply. `done` is the service-completion time.
  void advance(std::size_t slot, sim::SimTime done);
  /// Completion-time fence check for exec/coord visits that waited in a
  /// server queue: the fragment may have been exported mid-wait, so
  /// authority is re-validated when service completes, not just at arrival.
  void recheck_fence(std::size_t slot);
  void finish(std::size_t slot);

 private:
  /// The open-loop driver: issues the op at the arrival instant, then asks
  /// the policy for the next arrival and re-schedules itself.
  void issue_next();
  /// The one issue body both loops share: pops the next trace op, builds
  /// its plan, accounts it and launches the first network hop.
  void issue_one(std::uint32_t client);
  /// Whether fencing checks this visit's ownership epoch: fencing is on and
  /// the visit is an exec or coord visit — except an exec on a hashed file
  /// inode, which never migrates.
  [[nodiscard]] bool fence_checked(const Visit& v) const;
  /// A fenced visit's bounce: counts the rejection, retargets the visit at
  /// the live owner with its current epoch and travels there from the
  /// stale MDS, or runs the retry path when that delivery fails.
  void reroute(std::size_t slot, Visit& v);
  /// Async commit: flush when the batch threshold is reached, or arm the
  /// commit-window timer when this append opened a fresh batch.
  void schedule_group_commit(std::uint32_t mds);
  /// Group-commits one journal's buffer; the fsync cost is charged to the
  /// MDS as background service, off every op's critical path.
  void flush_journal(std::uint32_t mds);

  EngineCore& core_;
  RequestPlanner& planner_;
  FailoverEngine* failover_ = nullptr;
};

}  // namespace origami::cluster
