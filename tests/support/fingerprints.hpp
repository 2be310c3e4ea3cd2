#pragma once

// Byte-identity fingerprints shared by the golden tests and the
// regeneration tool (tools/goldens.cpp). A fingerprint serialises
// every observable counter of a run — virtual-clock metrics, the latency
// histogram shape, fault/recovery accounting, and the final ownership map —
// so two runs compare as whole strings. Doubles are rendered as hexfloats:
// equality means bit-identical arithmetic, not "close enough".

#include <ios>
#include <sstream>
#include <string>

#include "origami/cluster/metrics.hpp"
#include "origami/fs/live_replay.hpp"
#include "origami/recovery/invariants.hpp"

namespace origami::testing {

inline std::string run_result_fingerprint(const cluster::RunResult& r) {
  std::ostringstream out;
  out << std::hexfloat;
  out << r.completed_ops << ' ' << r.makespan << ' ' << r.throughput_ops
      << ' ' << r.steady_throughput_ops << '\n';
  out << r.mean_latency_us << ' ' << r.p50_latency_us << ' '
      << r.p99_latency_us << ' ' << r.latency.count() << ' '
      << r.latency.mean() << ' ' << r.latency.max() << '\n';
  out << r.total_rpcs << ' ' << r.rpc_per_request << ' '
      << r.forwarded_requests << ' ' << r.migrations << ' '
      << r.inodes_migrated << '\n';
  out << r.imf_qps << ' ' << r.imf_rpc << ' ' << r.imf_inodes << ' '
      << r.imf_busy << '\n';
  const cluster::RobustnessStats& f = r.faults;
  out << f.retries << ' ' << f.timeouts << ' ' << f.rpcs_lost << ' '
      << f.rpcs_corrupted << ' ' << f.failed_ops << ' ' << f.crashes << ' '
      << f.failovers << ' ' << f.failover_dirs << ' ' << f.restored_dirs
      << ' ' << f.aborted_migrations << ' ' << f.time_down << ' '
      << f.time_degraded << '\n';
  out << f.journal_records << ' ' << f.journal_checkpoints << ' '
      << f.journal_replays << ' ' << f.journal_replayed_records << ' '
      << f.torn_tail_truncations << ' ' << f.fenced_rejections << ' '
      << f.prepared_migrations << ' ' << f.committed_migrations << ' '
      << f.recovery_windows << ' ' << f.recovery_window_time << '\n';
  out << f.group_commits << ' ' << f.group_commit_records << ' '
      << f.acked_lost_ops << ' ' << f.unacked_lost_ops << ' '
      << f.max_commit_lag << '\n';
  // Per-epoch MDS activity, folded into one line per epoch.
  out << r.epochs.size();
  for (const cluster::EpochMetrics& e : r.epochs) {
    std::uint64_t ops = 0, rpcs = 0;
    sim::SimTime busy = 0;
    for (const cluster::MdsEpochMetrics& m : e.mds) {
      ops += m.ops;
      rpcs += m.rpcs;
      busy += m.busy;
    }
    out << ' ' << ops << ':' << rpcs << ':' << busy << ':' << e.migrations;
  }
  out << '\n';
  // Final ownership map, FNV-1a folded.
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint32_t owner : r.final_dir_owner) {
    h ^= owner;
    h *= 1099511628211ull;
  }
  out << r.final_dir_owner.size() << ':' << h << '\n';
  return out.str();
}

inline std::string live_stats_fingerprint(const fs::LiveReplayStats& s) {
  std::ostringstream out;
  out << std::hexfloat;
  out << s.executed << ' ' << s.failed << ' ' << s.epochs << ' '
      << s.migrations << ' ' << s.shard_imbalance << '\n';
  for (std::uint64_t ops : s.shard_ops) out << ops << ' ';
  out << '\n';
  out << s.makespan << ' ' << s.throughput_ops << ' ' << s.latency.count()
      << ' ' << s.latency.mean() << ' ' << s.latency.min() << ' '
      << s.latency.max();
  for (double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    out << ' ' << s.latency.quantile(q);
  }
  out << '\n';
  for (sim::SimTime b : s.shard_busy) out << b << ' ';
  out << '\n';
  for (std::uint64_t n : s.shard_served) out << n << ' ';
  out << '\n';
  const cluster::RobustnessStats& f = s.faults;
  out << f.retries << ' ' << f.timeouts << ' ' << f.rpcs_lost << ' '
      << f.rpcs_corrupted << ' ' << f.failed_ops << ' ' << f.crashes << ' '
      << f.failovers << ' ' << f.failover_dirs << ' ' << f.restored_dirs
      << ' ' << f.aborted_migrations << ' ' << f.time_down << ' '
      << f.journal_records << ' ' << f.journal_checkpoints << ' '
      << f.journal_replays << ' ' << f.journal_replayed_records << ' '
      << f.torn_tail_truncations << ' ' << f.fenced_rejections << ' '
      << f.prepared_migrations << ' ' << f.committed_migrations << ' '
      << f.recovery_windows << '\n';
  return out.str();
}

/// FNV-1a step over one 64-bit value (the fault-plane ledger fold).
inline void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= 1099511628211ull;
}

/// The epoch fingerprint plus what it omits about the fault plane: the
/// real-store crash counters and a fold of the recovery ledger's ownership
/// transfers, migration protocol events and real-store crash audits.
inline std::string fault_plane_fingerprint(const cluster::RunResult& r) {
  std::ostringstream out;
  out << run_result_fingerprint(r);
  const cluster::RobustnessStats& f = r.faults;
  out << f.kv_crash_recoveries << ' ' << f.kv_replayed_records << ' '
      << f.kv_acked_lost_records << '\n';
  if (r.ledger == nullptr) return out.str();
  const recovery::RecoveryLedger& led = *r.ledger;
  std::uint64_t h = 1469598103934665603ull;
  for (const recovery::OwnershipTransfer& t : led.transfers) {
    fnv_mix(h, t.dir);
    fnv_mix(h, t.from);
    fnv_mix(h, t.to);
    fnv_mix(h, t.epoch);
    fnv_mix(h, static_cast<std::uint64_t>(t.at));
  }
  out << led.transfers.size() << ':' << h;
  h = 1469598103934665603ull;
  for (const recovery::MigrationEvent& m : led.migrations) {
    fnv_mix(h, static_cast<std::uint64_t>(m.phase));
    fnv_mix(h, m.subtree);
    fnv_mix(h, m.from);
    fnv_mix(h, m.to);
    fnv_mix(h, m.epoch);
    fnv_mix(h, static_cast<std::uint64_t>(m.at));
  }
  out << ' ' << led.migrations.size() << ':' << h;
  h = 1469598103934665603ull;
  for (const recovery::RecoveryLedger::KvCrashAudit& k : led.kv_crashes) {
    fnv_mix(h, k.mds);
    fnv_mix(h, static_cast<std::uint64_t>(k.at));
    fnv_mix(h, k.wal_durable_seqno);
    fnv_mix(h, k.recovered_seqno);
    fnv_mix(h, k.replayed_records);
    fnv_mix(h, k.acked_lost_records);
    fnv_mix(h, k.torn_tail ? 1 : 0);
  }
  out << ' ' << led.kv_crashes.size() << ':' << h << '\n';
  return out.str();
}

/// The live fingerprint plus what it omits about the fault plane: group
/// commits, acked and unacked losses, the real-store crash counters and
/// straggler time. `max_commit_lag` stays out: it is the one live counter
/// whose value depends on the clock that stamps failover and restore
/// records.
inline std::string fault_plane_fingerprint(const fs::LiveReplayStats& s) {
  std::ostringstream out;
  out << live_stats_fingerprint(s);
  const cluster::RobustnessStats& f = s.faults;
  out << f.group_commits << ' ' << f.group_commit_records << ' '
      << f.acked_lost_ops << ' ' << f.unacked_lost_ops << ' '
      << f.kv_crash_recoveries << ' ' << f.kv_replayed_records << ' '
      << f.kv_acked_lost_records << ' ' << f.restored_dirs << ' '
      << f.time_degraded << '\n';
  return out.str();
}

/// The live fault-plane fingerprint plus an FNV-1a fold of the final
/// directory -> shard map, shard by shard in ino order: what a live policy
/// decided, not only what serving it cost.
inline std::string live_policy_fingerprint(const fs::LiveReplayStats& s,
                                           const fs::OrigamiFs& fsys) {
  std::uint64_t h = 1469598103934665603ull;
  std::uint64_t dirs = 0;
  for (std::uint32_t shard = 0; shard < fsys.shard_count(); ++shard) {
    for (const fs::Ino ino : fsys.dirs_owned_by(shard)) {
      fnv_mix(h, ino);
      fnv_mix(h, shard);
      ++dirs;
    }
  }
  std::ostringstream out;
  out << fault_plane_fingerprint(s) << dirs << ':' << h << '\n';
  return out.str();
}

}  // namespace origami::testing
