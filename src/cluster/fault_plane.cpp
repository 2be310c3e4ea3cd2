#include "origami/cluster/fault_plane.hpp"

#include <algorithm>

namespace origami::cluster {

using recovery::JournalRecordKind;
using sim::SimTime;

FaultPlane::FaultPlane(const fault::FaultPlan& plan,
                       const recovery::RecoveryParams& recovery,
                       std::uint32_t entities)
    : injector_(plan, entities),
      async_(plan.enabled() &&
             recovery.commit_mode == recovery::CommitMode::kAsync) {
  if (!plan.enabled()) return;
  journals_.reserve(entities);
  for (std::uint32_t i = 0; i < entities; ++i) journals_.emplace_back(recovery);
}

void FaultPlane::crash(std::uint32_t entity, SimTime now,
                       RobustnessStats& stats,
                       recovery::RecoveryLedger* ledger) {
  ++stats.crashes;
  recovery::MetadataJournal& journal = journals_[entity];
  if (async_) {
    // The commit buffer dies with the process: records waiting for their
    // group commit vanish, including ones whose op already acked. The
    // durability window classifies them and the roll-up (and the checker's
    // I6–I8) account for every one — nothing is dropped silently.
    (void)journal.crash_drop_pending(now);
    if (!stores_.empty()) {
      // The real store crashes with the process too: its commit buffer is
      // swept, its WAL tail torn, and recovery replays the surviving
      // durable prefix into a fresh memtable.
      kv::Db& store = *stores_[entity];
      const kv::Db::LossReport loss =
          store.simulate_crash(/*tear_wal_tail=*/true);
      kv::WalReplayStats replay;
      (void)store.recover(&replay);
      ++stats.kv_crash_recoveries;
      stats.kv_replayed_records += replay.records;
      stats.kv_acked_lost_records += loss.acked_lost.size();
      if (ledger != nullptr) {
        ledger->kv_crashes.push_back(
            {entity, now, loss.wal_durable_seqno, replay.max_seqno,
             replay.records, static_cast<std::uint64_t>(loss.acked_lost.size()),
             replay.torn_tail});
      }
    }
  }
  // The append in flight at the crash instant dies half-written; recovery
  // replay truncates it (it was never acknowledged, so nothing is lost).
  journal.simulate_torn_write();
}

FaultPlane::Failover FaultPlane::failover(std::uint32_t dead, SimTime now,
                                          FaultNamespace& ns,
                                          RobustnessStats& stats) {
  Failover out;
  out.absorbed.assign(journals_.size(), 0);
  out.journal_charge.assign(journals_.size(), 0);
  std::vector<std::uint64_t> tally = ns.loads();
  for (const std::uint64_t fragment : ns.fragments_of(dead)) {
    // The least-loaded survivor by running tally, lowest index on ties.
    std::uint32_t to = dead;
    for (std::uint32_t e = 0; e < tally.size(); ++e) {
      if (e == dead || ns.down(e)) continue;
      if (to == dead || tally[e] < tally[to]) to = e;
    }
    if (to == dead) break;  // no survivors: nowhere to go
    const std::optional<std::uint64_t> load = ns.move(fragment, dead, to);
    if (!load) continue;
    tally[to] += *load;
    out.absorbed[to] += *load;
    out.moved.push_back({fragment, dead, to});
    log_.push_back(out.moved.back());
    out.journal_charge[to] += journals_[to].append_migration(
        JournalRecordKind::kFailover, static_cast<fsns::NodeId>(fragment),
        dead, to, ns.ownership_epoch(fragment), now);
  }
  // The dead entity's journal is scanned exactly once per crash, even when
  // it owned nothing at the crash instant (a re-crash while its fragments
  // are still failed over): the restart must truncate the torn tail, or
  // every record appended after recovery hides behind the garbage.
  out.replay = journals_[dead].recover_replay();
  ++stats.journal_replays;
  stats.journal_replayed_records += out.replay.replayed_records;
  if (!out.moved.empty()) {
    ++stats.failovers;
    stats.failover_dirs += out.moved.size();
    ++stats.recovery_windows;
  }
  return out;
}

FaultPlane::Restore FaultPlane::restore(std::uint32_t entity, SimTime now,
                                        FaultNamespace& ns,
                                        RobustnessStats& stats) {
  Restore out;
  std::size_t kept = 0;
  for (const FailoverEntry& e : log_) {
    if (e.original != entity) {
      log_[kept++] = e;
      continue;
    }
    // Hand back only fragments still where failover parked them (the
    // balancer may have legitimately moved them since): `move` refuses a
    // fragment `e.assigned` no longer owns.
    const std::optional<std::uint64_t> load =
        ns.move(e.fragment, e.assigned, entity);
    if (!load) continue;
    out.load += *load;
    ++out.fragments;
    ++stats.restored_dirs;
    out.journal_charge += journals_[entity].append_migration(
        JournalRecordKind::kRestore, static_cast<fsns::NodeId>(e.fragment),
        e.assigned, entity, ns.ownership_epoch(e.fragment), now);
  }
  log_.resize(kept);
  return out;
}

void FaultPlane::commit_group_stores() {
  for (kv::Db* store : stores_) (void)store->commit();
}

void FaultPlane::roll_up(SimTime now, RobustnessStats& stats) {
  if (async_) {
    // Clean shutdown: no cost is charged — the workload is already drained.
    for (recovery::MetadataJournal& j : journals_) (void)j.flush(now);
    commit_group_stores();
  }
  for (const recovery::MetadataJournal& j : journals_) {
    stats.journal_records += j.appended();
    stats.journal_checkpoints += j.checkpoints();
    stats.torn_tail_truncations += j.torn_truncations();
    if (!async_) continue;
    stats.group_commits += j.group_commits();
    stats.group_commit_records += j.group_commit_records();
    stats.max_commit_lag =
        std::max(stats.max_commit_lag, j.durability().max_ack_to_durable());
    for (const auto& rec : j.durability().history()) {
      if (rec.lost_at == recovery::DurabilityWindow::kNever) continue;
      if (rec.acked_at != recovery::DurabilityWindow::kNever) {
        ++stats.acked_lost_ops;
      } else {
        ++stats.unacked_lost_ops;
      }
    }
  }
}

}  // namespace origami::cluster
