#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "origami/cluster/balancer.hpp"
#include "origami/cluster/metrics.hpp"
#include "origami/sim/time.hpp"

namespace origami::engine {

/// One two-phase migration transition (DESIGN.md §9). Shaped for both the
/// epoch simulator (subtree = NodeId) and the live service (subtree =
/// inode number); `at` is virtual ns in both.
struct MigrationPhaseEvent {
  enum class Phase : std::uint8_t { kPrepare, kCommit, kAbort };
  Phase phase = Phase::kPrepare;
  std::uint64_t subtree = 0;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::uint32_t ownership_epoch = 0;
  sim::SimTime at = 0;
  /// Inodes covered: the PREPARE estimate, the COMMIT count actually
  /// moved, or 0 for an ABORT (ownership never transferred).
  std::uint64_t inodes = 0;
};

/// One fault-layer transition: a fail-stop window opening, the resulting
/// fragment failover onto survivors, or the owner coming back.
struct FaultEvent {
  enum class Kind : std::uint8_t { kCrash, kFailover, kRecover };
  Kind kind = Kind::kCrash;
  std::uint32_t mds = 0;
  sim::SimTime at = 0;
  /// kFailover: fragments reassigned; kRecover: fragments handed back.
  std::uint64_t dirs = 0;
};

/// One request entering the system through the arrival plane
/// (wl::ArrivalPolicy): fired by the epoch DES at every issue, open- and
/// closed-loop alike. `index` is the run-wide issue sequence number,
/// `client` the attributed client/tenant lane. The live plane reports
/// arrivals through its own stats instead (its issue loop runs off the
/// DES thread).
struct ArrivalEvent {
  std::uint64_t index = 0;
  std::uint32_t client = 0;
  sim::SimTime at = 0;
};

/// Per-epoch deltas of the exec/failover/migration counters. Aggregates of
/// these already live in `RunResult::faults`; the bus exists precisely so
/// subscribers can see the per-epoch *distribution* (verdict inputs, fence
/// and abort rates, retry bursts) without threading more fields through
/// `RunResult`.
struct EpochCounters {
  std::uint32_t epoch = 0;
  std::uint64_t completed_ops = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t failed_ops = 0;
  std::uint64_t fenced_rejections = 0;
  std::uint64_t prepared_migrations = 0;
  std::uint64_t committed_migrations = 0;
  std::uint64_t aborted_migrations = 0;
  std::uint64_t crashes = 0;
  std::uint64_t failovers = 0;
};

/// Cross-layer observer over the request-execution engine's six seams
/// (DESIGN.md §11/§14/§16): arrival (every request issued), plan (epoch
/// snapshots + balancer decisions), exec (per-epoch issue/retry counters),
/// failover (crash/failover/recover), migration (two-phase transitions)
/// and stats (finalized run). Every hook
/// fires from the single-threaded DES loop, so the callback sequence is
/// deterministic at any `--threads` setting. Policies may implement this
/// interface themselves — the engine auto-subscribes a balancer that does —
/// and benches subscribe to collect distributions the summary result would
/// otherwise have to grow fields for.
class Observer {
 public:
  virtual ~Observer() = default;

  /// Plan seam: the freshly drained snapshot, before the balancer runs.
  virtual void on_epoch_begin(const cluster::EpochSnapshot& snap) {
    (void)snap;
  }
  /// Plan seam: what the balancer decided at this boundary (may be empty).
  virtual void on_decisions(
      std::uint32_t epoch, std::span<const cluster::MigrationDecision> ds) {
    (void)epoch;
    (void)ds;
  }
  /// Arrival seam: one request issued into the cluster. High-frequency —
  /// implementations should be O(1) counters, not allocators.
  virtual void on_arrival(const ArrivalEvent& ev) { (void)ev; }
  /// Migration seam: one PREPARE/COMMIT/ABORT transition.
  virtual void on_migration_phase(const MigrationPhaseEvent& ev) { (void)ev; }
  /// Failover seam: crash windows, fragment failover, recovery hand-back.
  virtual void on_fault(const FaultEvent& ev) { (void)ev; }
  /// Exec/stats seam: the epoch's metrics row plus this epoch's counter
  /// deltas. Fires after `on_decisions` at the same boundary.
  virtual void on_epoch_end(const cluster::EpochMetrics& em,
                            const EpochCounters& delta) {
    (void)em;
    (void)delta;
  }
  /// Stats seam: the finalized result, after summary roll-ups and ledger
  /// sealing. Fires exactly once per run.
  virtual void on_run_end(const cluster::RunResult& result) { (void)result; }
};

/// Fan-out of engine events to subscribers, in attach order. Dispatch is
/// plain virtual calls on the caller's thread — the engine only ever calls
/// from the DES loop, so ordering is deterministic by construction.
class ObserverBus {
 public:
  void attach(Observer* observer) {
    if (observer != nullptr) observers_.push_back(observer);
  }
  [[nodiscard]] bool empty() const noexcept { return observers_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return observers_.size(); }

  void epoch_begin(const cluster::EpochSnapshot& snap) const {
    for (Observer* o : observers_) o->on_epoch_begin(snap);
  }
  void decisions(std::uint32_t epoch,
                 std::span<const cluster::MigrationDecision> ds) const {
    for (Observer* o : observers_) o->on_decisions(epoch, ds);
  }
  void arrival(const ArrivalEvent& ev) const {
    for (Observer* o : observers_) o->on_arrival(ev);
  }
  void migration_phase(const MigrationPhaseEvent& ev) const {
    for (Observer* o : observers_) o->on_migration_phase(ev);
  }
  void fault(const FaultEvent& ev) const {
    for (Observer* o : observers_) o->on_fault(ev);
  }
  void epoch_end(const cluster::EpochMetrics& em,
                 const EpochCounters& delta) const {
    for (Observer* o : observers_) o->on_epoch_end(em, delta);
  }
  void run_end(const cluster::RunResult& result) const {
    for (Observer* o : observers_) o->on_run_end(result);
  }

 private:
  std::vector<Observer*> observers_;
};

}  // namespace origami::engine
