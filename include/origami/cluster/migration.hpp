#pragma once

#include <cstdint>
#include <unordered_set>

#include "origami/cluster/exec.hpp"
#include "origami/recovery/invariants.hpp"

namespace origami::cluster {

/// Bookkeeping for two-phase fragment migrations: the set of keys with a
/// PREPARE logged and the outcome still undecided (epoch simulator), plus
/// the paired journal appends + ledger trail each protocol phase produces,
/// shared with the live service. Keys are namespace identifiers (NodeId in
/// the simulator, inode number in live mode).
class TwoPhaseLog {
 public:
  struct Charges {
    sim::SimTime from = 0;
    sim::SimTime to = 0;
  };

  [[nodiscard]] bool pending(std::uint64_t key) const {
    return pending_.count(key) > 0;
  }
  void add(std::uint64_t key) { pending_.insert(key); }
  void remove(std::uint64_t key) { pending_.erase(key); }

  /// Logs one protocol phase: appends the migration record to each live
  /// endpoint's journal (pass nullptr for a crashed endpoint) and pushes the
  /// event onto the ledger trail when one is being captured. Returns the
  /// per-endpoint fsync charges.
  static Charges record(recovery::JournalRecordKind kind, fsns::NodeId subtree,
                        cost::MdsId from, cost::MdsId to, std::uint32_t epoch,
                        sim::SimTime now,
                        recovery::MetadataJournal* from_journal,
                        recovery::MetadataJournal* to_journal,
                        recovery::RecoveryLedger* ledger);

 private:
  std::unordered_set<std::uint64_t> pending_;
};

/// The migration driver: applies balancer decisions at epoch boundaries
/// and prices the copy work. Clean runs move ownership at once; with faults
/// armed every move runs as two-phase PREPARE/COMMIT/ABORT, refusing moves
/// that touch a down MDS and aborting those whose endpoint dies inside the
/// copy window.
class MigrationEngine {
 public:
  explicit MigrationEngine(EngineCore& core) : core_(core) {}

  /// Applies one balancer decision, crediting `em` for committed moves.
  void apply(const MigrationDecision& d, EpochMetrics& em);

  /// Inodes `d` would move right now (the copy work priced at PREPARE).
  [[nodiscard]] std::uint64_t count_migratable(const MigrationDecision& d) const;
  /// Logs PREPARE at both endpoints, charges the copy, schedules COMMIT.
  void start_two_phase(const MigrationDecision& d);
  /// Commit point: transfers ownership if both endpoints survived the copy
  /// window, otherwise logs ABORT (ownership never moved — nothing to undo).
  void commit_migration(MigrationDecision d);

 private:
  /// Moves the subtree's records between the real stores and credits the
  /// move to the run and to `em`.
  void finish_move(const MigrationDecision& d, std::uint64_t moved,
                   EpochMetrics& em);

  EngineCore& core_;
  TwoPhaseLog two_phase_;
  std::uint64_t commit_seq_ = 0;  // global commit LSN (monotone epochs)
};

}  // namespace origami::cluster
