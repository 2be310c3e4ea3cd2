#include "origami/cluster/migration.hpp"

namespace origami::cluster {

using fsns::NodeId;
using sim::SimTime;

namespace {

/// Narrates one protocol transition onto the observer bus (migration seam).
void notify_phase(EngineCore& core, engine::MigrationPhaseEvent::Phase phase,
                  const MigrationDecision& d, std::uint32_t epoch,
                  std::uint64_t inodes) {
  if (core.observers.empty()) return;
  engine::MigrationPhaseEvent ev;
  ev.phase = phase;
  ev.subtree = d.subtree;
  ev.from = d.from;
  ev.to = d.to;
  ev.ownership_epoch = epoch;
  ev.at = core.queue.now();
  ev.inodes = inodes;
  core.observers.migration_phase(ev);
}

}  // namespace

TwoPhaseLog::Charges TwoPhaseLog::record(
    recovery::JournalRecordKind kind, NodeId subtree, cost::MdsId from,
    cost::MdsId to, std::uint32_t epoch, SimTime now,
    recovery::MetadataJournal* from_journal,
    recovery::MetadataJournal* to_journal, recovery::RecoveryLedger* ledger) {
  Charges c;
  if (from_journal != nullptr) {
    c.from =
        from_journal->append_migration(kind, subtree, from, to, epoch, now);
  }
  if (to_journal != nullptr) {
    c.to = to_journal->append_migration(kind, subtree, from, to, epoch, now);
  }
  if (ledger != nullptr) {
    ledger->migrations.push_back({kind, subtree, from, to, epoch, now});
  }
  return c;
}

std::uint64_t MigrationEngine::count_migratable(
    const MigrationDecision& d) const {
  std::uint64_t total = 0;
  if (d.whole_subtree) {
    core_.trace.tree.visit_subtree(d.subtree, [&](NodeId id) {
      if (core_.trace.tree.is_dir(id) &&
          core_.partition.dir_owner(id) == d.from) {
        total += 1 + core_.trace.tree.node(id).sub_files;
      }
    });
  } else if (core_.trace.tree.is_dir(d.subtree) &&
             core_.partition.dir_owner(d.subtree) == d.from) {
    total = 1 + core_.trace.tree.node(d.subtree).sub_files;
  }
  return total;
}

void MigrationEngine::start_two_phase(const MigrationDecision& d) {
  if (two_phase_.pending(d.subtree)) {
    // A previous move of this subtree is still inside its copy window; the
    // balancer is working off a stale snapshot. Refuse the new intent.
    ++core_.result.faults.aborted_migrations;
    return;
  }
  const std::uint64_t estimate = count_migratable(d);
  if (estimate == 0) return;
  const SimTime now = core_.queue.now();
  const SimTime cost =
      core_.opt.cost_params.t_migrate_per_inode * static_cast<SimTime>(estimate);
  const std::uint32_t epoch = core_.partition.ownership_epoch(d.subtree);
  const auto charge = TwoPhaseLog::record(
      recovery::JournalRecordKind::kPrepare, d.subtree, d.from, d.to, epoch,
      now, &core_.fault_plane.journal(d.from),
      &core_.fault_plane.journal(d.to), core_.ledger.get());
  ++core_.result.faults.prepared_migrations;
  notify_phase(core_, engine::MigrationPhaseEvent::Phase::kPrepare, d, epoch,
               estimate);
  two_phase_.add(d.subtree);
  // The copy happens inside the prepare window; ownership only moves at the
  // commit point, so a crash before then leaves the source authoritative.
  core_.servers[d.from].serve(now, cost + charge.from);
  core_.servers[d.to].serve(now, cost + charge.to);
  core_.queue.schedule_at(now + cost, [this, d] { commit_migration(d); });
}

void MigrationEngine::commit_migration(MigrationDecision d) {
  two_phase_.remove(d.subtree);
  const SimTime now = core_.queue.now();
  const bool from_up = !core_.servers[d.from].is_down(now);
  const bool to_up = !core_.servers[d.to].is_down(now);
  std::uint64_t moved = 0;
  if (core_.active_clients > 0 && from_up && to_up) {
    moved = d.whole_subtree
                ? core_.partition.migrate(d.subtree, d.from, d.to)
                : core_.partition.migrate_single(d.subtree, d.from, d.to);
  }
  if (moved == 0) {
    // An endpoint died during the copy window (or failover already moved
    // the fragments): ABORT. Ownership never transferred, so there is no
    // rollback — the wasted copy effort was charged at PREPARE.
    const std::uint32_t epoch = core_.partition.ownership_epoch(d.subtree);
    (void)TwoPhaseLog::record(
        recovery::JournalRecordKind::kAbort, d.subtree, d.from, d.to, epoch,
        now, from_up ? &core_.fault_plane.journal(d.from) : nullptr,
        to_up ? &core_.fault_plane.journal(d.to) : nullptr,
        core_.ledger.get());
    ++core_.result.faults.aborted_migrations;
    notify_phase(core_, engine::MigrationPhaseEvent::Phase::kAbort, d, epoch,
                 0);
    return;
  }
  const auto epoch = static_cast<std::uint32_t>(++commit_seq_);
  const auto charge = TwoPhaseLog::record(
      recovery::JournalRecordKind::kCommit, d.subtree, d.from, d.to, epoch,
      now, &core_.fault_plane.journal(d.from),
      &core_.fault_plane.journal(d.to), core_.ledger.get());
  core_.servers[d.from].serve(now, charge.from);
  core_.servers[d.to].serve(now, charge.to);
  ++core_.result.faults.committed_migrations;
  notify_phase(core_, engine::MigrationPhaseEvent::Phase::kCommit, d, epoch,
               moved);
  // Credit the epoch whose boundary decided the move (PR-1 semantics); it
  // was recorded when that boundary finished, before any COMMIT can run.
  finish_move(d, moved, core_.result.epochs.back());
}

void MigrationEngine::finish_move(const MigrationDecision& d,
                                  std::uint64_t moved, EpochMetrics& em) {
  if (core_.opt.kv_backing) {
    core_.trace.tree.visit_subtree(d.subtree, [&](NodeId id) {
      if (core_.partition.node_owner(id) != d.to) return;
      core_.stores[d.from]->erase(core_.trace.tree, id);
      core_.stores[d.to]->put(core_.trace.tree, id);
    });
  }
  ++em.migrations;
  em.inodes_moved += moved;
  ++core_.result.migrations;
  core_.result.inodes_migrated += moved;
}

void MigrationEngine::apply(const MigrationDecision& d, EpochMetrics& em) {
  if (d.subtree == fsns::kInvalidNode || d.from == d.to) return;
  if (core_.faults_on) {
    if (core_.servers[d.from].is_down(core_.queue.now()) ||
        core_.servers[d.to].is_down(core_.queue.now())) {
      // The partition map must never point at a down MDS: refuse moves
      // touching one (the balancer saw a stale pre-crash snapshot).
      ++core_.result.faults.aborted_migrations;
      return;
    }
    start_two_phase(d);
    return;
  }
  const std::uint64_t moved =
      d.whole_subtree ? core_.partition.migrate(d.subtree, d.from, d.to)
                      : core_.partition.migrate_single(d.subtree, d.from, d.to);
  if (moved == 0) return;
  const SimTime cost =
      core_.opt.cost_params.t_migrate_per_inode * static_cast<SimTime>(moved);
  core_.servers[d.from].serve(core_.queue.now(), cost);
  core_.servers[d.to].serve(core_.queue.now(), cost);
  finish_move(d, moved, em);
}

}  // namespace origami::cluster
