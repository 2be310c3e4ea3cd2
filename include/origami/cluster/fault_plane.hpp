#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "origami/cluster/metrics.hpp"
#include "origami/fault/fault.hpp"
#include "origami/recovery/invariants.hpp"
#include "origami/recovery/journal.hpp"

namespace origami::cluster {

/// How the fault plane reads and moves one engine's namespace. Entities are
/// MDSs (epoch engine) or shards (live engine); fragments are directory
/// node ids or directory inodes. The rules the engines differ on — what a
/// fragment weighs, which moves count — live in each implementation, so
/// the plane never needs to know which engine called it.
class FaultNamespace {
 public:
  virtual ~FaultNamespace() = default;

  /// True while `entity` sits inside a crash window.
  [[nodiscard]] virtual bool down(std::uint32_t entity) const = 0;
  /// Per-entity load; failover keeps a running tally seeded from it.
  [[nodiscard]] virtual std::vector<std::uint64_t> loads() const = 0;
  /// The fragments `entity` owns, in the engine's deterministic order.
  [[nodiscard]] virtual std::vector<std::uint64_t> fragments_of(
      std::uint32_t entity) const = 0;
  [[nodiscard]] virtual std::uint32_t ownership_epoch(
      std::uint64_t fragment) const = 0;
  /// Moves `fragment` to `to` if `from` still owns it. Returns the load it
  /// carried, or nullopt when nothing moved that the engine counts.
  virtual std::optional<std::uint64_t> move(std::uint64_t fragment,
                                            std::uint32_t from,
                                            std::uint32_t to) = 0;
};

/// The crash protocol both engines share. The epoch DES (`FailoverEngine`)
/// and the live serving plane (`fs::replay_on_live`) call it for the
/// storage side of a crash, failover to the least-loaded survivor, restore
/// on recovery and the end-of-run journal roll-up. It owns the fault
/// injector, one metadata journal per entity (only when the fault plan is
/// enabled) and the failover log. Each engine keeps its clock and
/// scheduling, its down state, straggler pricing, retry streams and (epoch
/// only) the pricing of recovery windows.
class FaultPlane {
 public:
  /// One fragment failover moved, kept until its owner recovers.
  struct FailoverEntry {
    std::uint64_t fragment = 0;
    std::uint32_t original = 0;  ///< the crashed owner
    std::uint32_t assigned = 0;  ///< the survivor that absorbed it
  };

  /// What one failover did, for the epoch engine to price recovery windows.
  struct Failover {
    std::vector<FailoverEntry> moved;          ///< also kept for restore
    std::vector<std::uint64_t> absorbed;       ///< load each entity took on
    std::vector<sim::SimTime> journal_charge;  ///< its kFailover append cost
    recovery::MetadataJournal::RecoveryOutcome replay;  ///< dead journal's
  };

  /// What one restore handed back.
  struct Restore {
    std::uint64_t fragments = 0;
    std::uint64_t load = 0;
    sim::SimTime journal_charge = 0;  ///< kRestore append cost
  };

  FaultPlane(const fault::FaultPlan& plan,
             const recovery::RecoveryParams& recovery, std::uint32_t entities);

  /// Attaches the next entity's real store when it group-commits with the
  /// journals (attach all or none, in entity order): a crash then tears and
  /// recovers it, and the roll-up drains it.
  void attach_group_commit_store(kv::Db& store) { stores_.push_back(&store); }

  [[nodiscard]] const fault::FaultInjector& injector() const noexcept {
    return injector_;
  }
  /// Group-committed journaling: async commit mode with faults armed.
  [[nodiscard]] bool async_commit() const noexcept { return async_; }
  [[nodiscard]] recovery::MetadataJournal& journal(std::uint32_t entity) {
    return journals_[entity];
  }
  [[nodiscard]] const std::vector<recovery::MetadataJournal>& journals()
      const noexcept {
    return journals_;
  }

  /// The storage side of a crash of `entity` at `now`. In async commit the
  /// commit buffer dies, and a group-committing store is crashed with a
  /// torn WAL tail and recovered (audited into `ledger` when one is
  /// captured). In both modes the journal's in-flight append is torn.
  void crash(std::uint32_t entity, sim::SimTime now, RobustnessStats& stats,
             recovery::RecoveryLedger* ledger);

  /// Moves every fragment `dead` owns to the least-loaded live survivor,
  /// journaling each move as kFailover on the absorber at `now`, and
  /// replays the dead entity's journal exactly once.
  Failover failover(std::uint32_t dead, sim::SimTime now, FaultNamespace& ns,
                    RobustnessStats& stats);

  /// Hands back to the recovered `entity` the fragments failover took from
  /// it, except those moved since, journaling each as kRestore at `now`.
  Restore restore(std::uint32_t entity, sim::SimTime now, FaultNamespace& ns,
                  RobustnessStats& stats);

  /// Group-commits every attached store.
  void commit_group_stores();

  /// Clean shutdown at `now`: in async commit the surviving buffers and
  /// stores flush, then every journal's counters roll up into `stats`.
  void roll_up(sim::SimTime now, RobustnessStats& stats);

 private:
  fault::FaultInjector injector_;
  bool async_;
  std::vector<recovery::MetadataJournal> journals_;
  std::vector<kv::Db*> stores_;
  /// Failed-over fragments not yet handed back, in failover order.
  std::vector<FailoverEntry> log_;
};

}  // namespace origami::cluster
