// Tests for the durable-recovery subsystem (origami::recovery): the
// per-MDS metadata journal (fsync/checkpoint pricing, torn-tail repair),
// the namespace invariant checker on hand-built ledgers, and the replay
// integration (journaled failover, two-phase migration, epoch fencing).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "origami/cluster/replay.hpp"
#include "origami/common/rng.hpp"
#include "origami/core/balancers.hpp"
#include "origami/core/features.hpp"
#include "origami/fs/live_replay.hpp"
#include "origami/fsns/dir_tree.hpp"
#include "origami/policy/registry.hpp"
#include "origami/recovery/invariants.hpp"
#include "origami/recovery/journal.hpp"
#include "origami/wl/generators.hpp"

namespace origami {
namespace {

using recovery::JournalRecordKind;
using recovery::MetadataJournal;
using recovery::NamespaceInvariantChecker;
using recovery::RecoveryLedger;
using recovery::RecoveryParams;

// ----------------------------------------------------------------- journal --

TEST(MetadataJournal, AppendsChargeFsyncAndAdvanceSeqnos) {
  RecoveryParams p;
  MetadataJournal j(p);
  EXPECT_EQ(j.append_op(1, 5), p.t_fsync);
  EXPECT_EQ(j.append_op(2, 6), p.t_fsync);
  EXPECT_EQ(j.last_seqno(), 2u);
  EXPECT_EQ(j.appended(), 2u);
  EXPECT_EQ(j.checkpoints(), 0u);

  const auto view = j.snapshot();
  ASSERT_EQ(view.live.size(), 2u);
  EXPECT_EQ(view.live[0].kind, JournalRecordKind::kOp);
  EXPECT_EQ(view.live[0].op_id, 1u);
  EXPECT_EQ(view.live[0].node, 5u);
  EXPECT_EQ(view.live[1].op_id, 2u);
  EXPECT_LT(view.live[0].seqno, view.live[1].seqno);
}

TEST(MetadataJournal, MigrationRecordsRoundTrip) {
  RecoveryParams p;
  MetadataJournal j(p);
  EXPECT_EQ(j.append_migration(JournalRecordKind::kPrepare, 9, 1, 2, 7),
            p.t_fsync);
  (void)j.append_migration(JournalRecordKind::kCommit, 9, 1, 2, 8);

  const auto view = j.snapshot();
  ASSERT_EQ(view.live.size(), 2u);
  EXPECT_EQ(view.live[0].kind, JournalRecordKind::kPrepare);
  EXPECT_EQ(view.live[0].node, 9u);
  EXPECT_EQ(view.live[0].from, 1u);
  EXPECT_EQ(view.live[0].to, 2u);
  EXPECT_EQ(view.live[0].epoch, 7u);
  EXPECT_EQ(view.live[1].kind, JournalRecordKind::kCommit);
  EXPECT_EQ(view.live[1].epoch, 8u);
}

TEST(MetadataJournal, CheckpointFoldsAckedOpsAndResetsLog) {
  RecoveryParams p;
  p.checkpoint_every = 4;
  MetadataJournal j(p);
  EXPECT_EQ(j.append_op(1, 10), p.t_fsync);
  EXPECT_EQ(j.append_op(2, 11), p.t_fsync);
  EXPECT_EQ(j.append_op(3, 12), p.t_fsync);
  // The 4th append crosses the threshold: fsync + checkpoint charged.
  EXPECT_EQ(j.append_op(4, 13), p.t_fsync + p.t_checkpoint);
  EXPECT_EQ(j.checkpoints(), 1u);
  EXPECT_EQ(j.records_since_checkpoint(), 0u);

  auto view = j.snapshot();
  EXPECT_TRUE(view.live.empty());
  ASSERT_EQ(view.checkpointed_ops.size(), 4u);
  EXPECT_EQ(view.checkpointed_ops[0], 1u);
  EXPECT_EQ(view.checkpointed_ops[3], 4u);
  EXPECT_EQ(view.checkpoint_seqno, 4u);

  // Post-checkpoint appends land on the fresh log, above the watermark.
  (void)j.append_op(5, 14);
  view = j.snapshot();
  ASSERT_EQ(view.live.size(), 1u);
  EXPECT_GT(view.live[0].seqno, view.checkpoint_seqno);
}

TEST(MetadataJournal, TornTailTruncatedAndReplayPriced) {
  RecoveryParams p;
  MetadataJournal j(p);
  (void)j.append_op(1, 5);
  (void)j.append_op(2, 6);
  (void)j.append_op(3, 7);
  j.simulate_torn_write();

  const auto out = j.recover_replay();
  EXPECT_EQ(out.replayed_records, 3u);
  EXPECT_TRUE(out.torn_tail);
  EXPECT_GT(out.dropped_bytes, 0u);
  EXPECT_EQ(out.replay_time, p.t_replay_base + 3 * p.t_replay_per_record);
  EXPECT_EQ(j.torn_truncations(), 1u);

  // The log is clean after truncation: new appends survive a second scan.
  (void)j.append_op(4, 8);
  const auto again = j.recover_replay();
  EXPECT_EQ(again.replayed_records, 4u);
  EXPECT_FALSE(again.torn_tail);
  EXPECT_EQ(again.dropped_bytes, 0u);
}

// ----------------------------------------------------------- async commit --

RecoveryParams async_params() {
  RecoveryParams p;
  p.commit_mode = recovery::CommitMode::kAsync;
  return p;
}

TEST(MetadataJournal, AsyncAppendsBufferUntilGroupCommit) {
  const RecoveryParams p = async_params();
  MetadataJournal j(p);
  // Memtable-apply completion: no durability charge at append time.
  EXPECT_EQ(j.append_op(1, 5, sim::micros(10)), 0);
  EXPECT_EQ(j.append_op(2, 6, sim::micros(20)), 0);
  EXPECT_EQ(j.pending_records(), 2u);
  EXPECT_EQ(j.oldest_pending_at(), sim::micros(10));
  EXPECT_TRUE(j.snapshot().live.empty());  // nothing in the WAL yet

  // Op 1 is acked before the flush: it rides the durability window.
  j.note_acked(1, sim::micros(12));
  EXPECT_EQ(j.flush(sim::micros(30)), p.t_fsync);  // one fsync for the batch
  EXPECT_EQ(j.pending_records(), 0u);
  EXPECT_EQ(j.group_commits(), 1u);
  EXPECT_EQ(j.group_commit_records(), 2u);
  EXPECT_EQ(j.durability().max_ack_to_durable(), sim::micros(18));

  const auto view = j.snapshot();
  ASSERT_EQ(view.live.size(), 2u);
  EXPECT_EQ(view.live[0].op_id, 1u);
  EXPECT_EQ(view.live[1].op_id, 2u);
  EXPECT_LT(view.live[0].seqno, view.live[1].seqno);

  // Nothing pending: a second flush is free and not a group commit.
  EXPECT_EQ(j.flush(sim::micros(40)), 0);
  EXPECT_EQ(j.group_commits(), 1u);
}

TEST(MetadataJournal, AsyncCrashDropsPendingAndClassifiesLosses) {
  MetadataJournal j(async_params());
  (void)j.append_op(1, 5, sim::micros(10));
  (void)j.append_op(2, 6, sim::micros(20));
  (void)j.append_op(3, 7, sim::micros(30));
  j.note_acked(1, sim::micros(12));
  j.note_acked(2, sim::micros(22));

  const auto loss = j.crash_drop_pending(sim::micros(50));
  ASSERT_EQ(loss.acked_lost.size(), 2u);
  EXPECT_EQ(loss.unacked_lost, 1u);
  EXPECT_EQ(loss.acked_lost[0].op_id, 1u);
  EXPECT_EQ(loss.acked_lost[0].acked_at, sim::micros(12));
  EXPECT_EQ(loss.acked_lost[0].lost_at, sim::micros(50));
  EXPECT_EQ(j.pending_records(), 0u);
  EXPECT_TRUE(j.snapshot().live.empty());  // the buffer never hit the WAL
  // The drop bumped the generation, so a stale flush timer would no-op,
  // and there is nothing left for a flush to commit.
  EXPECT_EQ(j.flush_generation(), 1u);
  EXPECT_EQ(j.flush(sim::micros(60)), 0);

  // An ack that was in flight at the crash still lands in the history:
  // finalization re-classifies op 3 as acked-but-lost from these stamps.
  j.note_acked(3, sim::micros(70));
  const auto& hist = j.durability().history();
  ASSERT_EQ(hist.size(), 3u);
  EXPECT_EQ(hist[2].op_id, 3u);
  EXPECT_EQ(hist[2].acked_at, sim::micros(70));
  EXPECT_EQ(hist[2].lost_at, sim::micros(50));
}

TEST(MetadataJournal, AsyncMigrationRecordsFlushPendingFirst) {
  const RecoveryParams p = async_params();
  MetadataJournal j(p);
  (void)j.append_op(1, 5, sim::micros(10));
  (void)j.append_op(2, 6, sim::micros(20));
  // Protocol records are durable on return: the pending batch group-commits
  // first (one fsync) and the PREPARE pays its own (second fsync), so the
  // WAL order stays seqno order for I5.
  EXPECT_EQ(j.append_migration(JournalRecordKind::kPrepare, 9, 0, 1, 3,
                               sim::micros(40)),
            2 * p.t_fsync);
  EXPECT_EQ(j.pending_records(), 0u);
  EXPECT_EQ(j.group_commits(), 1u);

  const auto view = j.snapshot();
  ASSERT_EQ(view.live.size(), 3u);
  EXPECT_EQ(view.live[0].op_id, 1u);
  EXPECT_EQ(view.live[1].op_id, 2u);
  EXPECT_EQ(view.live[2].kind, JournalRecordKind::kPrepare);
  EXPECT_LT(view.live[0].seqno, view.live[1].seqno);
  EXPECT_LT(view.live[1].seqno, view.live[2].seqno);
}

// ------------------------------------------------------- checkpoint edges --

TEST(MetadataJournal, CheckpointOnEmptyJournalIsConsistent) {
  RecoveryParams p;
  MetadataJournal j(p);
  EXPECT_EQ(j.checkpoint_now(), p.t_checkpoint);
  EXPECT_EQ(j.checkpoints(), 1u);

  auto view = j.snapshot();
  EXPECT_TRUE(view.live.empty());
  EXPECT_TRUE(view.checkpointed_ops.empty());
  EXPECT_EQ(view.checkpoint_seqno, 0u);

  // Post-checkpoint appends land above the (zero) watermark and replay.
  (void)j.append_op(1, 4);
  view = j.snapshot();
  ASSERT_EQ(view.live.size(), 1u);
  EXPECT_GT(view.live[0].seqno, view.checkpoint_seqno);
  const auto out = j.recover_replay();
  EXPECT_EQ(out.replayed_records, 1u);
  EXPECT_FALSE(out.torn_tail);
}

TEST(MetadataJournal, CrashInsideCheckpointTruncatesAndKeepsFoldedOps) {
  RecoveryParams p;
  MetadataJournal j(p);
  (void)j.append_op(1, 5);
  (void)j.append_op(2, 6);
  (void)j.append_op(3, 7);
  // The crash lands while the checkpoint fold is scanning the log: the torn
  // partial record must be truncated AND accounted, while every complete
  // op still folds into the summary.
  j.simulate_torn_write();
  EXPECT_EQ(j.checkpoint_now(), p.t_checkpoint);
  EXPECT_EQ(j.torn_truncations(), 1u);

  const auto view = j.snapshot();
  EXPECT_TRUE(view.live.empty());
  ASSERT_EQ(view.checkpointed_ops.size(), 3u);
  EXPECT_EQ(view.checkpointed_ops[0], 1u);
  EXPECT_EQ(view.checkpointed_ops[2], 3u);

  // The reset log is clean: recovery finds nothing torn.
  const auto out = j.recover_replay();
  EXPECT_EQ(out.replayed_records, 0u);
  EXPECT_FALSE(out.torn_tail);
  EXPECT_EQ(j.torn_truncations(), 1u);
}

// ---------------------------------------------------------------- checker --

struct CheckerFixture {
  fsns::DirTree tree;
  fsns::NodeId a, b, f;

  CheckerFixture() {
    a = tree.add_dir(fsns::kRootNode, "a");
    b = tree.add_dir(fsns::kRootNode, "b");
    f = tree.add_file(a, "f");
    tree.finalize();
  }

  /// A consistent run: everything on MDS 0, both MDSes alive, no history.
  [[nodiscard]] RecoveryLedger clean() const {
    RecoveryLedger led;
    led.mds_count = 2;
    led.initial_owner.assign(tree.size(), 0);
    led.final_owner.assign(tree.size(), 0);
    led.down_at_end.assign(2, false);
    led.journals.resize(2);
    return led;
  }
};

TEST(InvariantChecker, CleanLedgerPasses) {
  CheckerFixture fx;
  const auto report = NamespaceInvariantChecker::check(fx.tree, fx.clean());
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_TRUE(report.to_string().empty());
}

TEST(InvariantChecker, FlagsFragmentOwnedByDeadMds) {
  CheckerFixture fx;
  auto led = fx.clean();
  led.final_owner[fx.b] = 1;
  led.transfers.push_back({fx.b, 0, 1, 1, sim::millis(5)});
  led.down_at_end[1] = true;  // owner died and nobody failed the dir over
  const auto report = NamespaceInvariantChecker::check(fx.tree, led);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("I1"), std::string::npos);
}

TEST(InvariantChecker, FlagsFileStrandedAwayFromParent) {
  CheckerFixture fx;
  auto led = fx.clean();
  led.final_owner[fx.f] = 1;  // parent dir stays on 0
  const auto report = NamespaceInvariantChecker::check(fx.tree, led);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("I1"), std::string::npos);
}

TEST(InvariantChecker, HashedFilesExemptFromColocation) {
  CheckerFixture fx;
  auto led = fx.clean();
  led.final_owner[fx.f] = 1;
  led.hash_file_inodes = true;  // fine-hash: files never follow the parent
  const auto report = NamespaceInvariantChecker::check(fx.tree, led);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(InvariantChecker, FlagsTeleportedFragment) {
  CheckerFixture fx;
  auto led = fx.clean();
  led.final_owner[fx.b] = 1;  // owner changed with no recorded transfer
  const auto report = NamespaceInvariantChecker::check(fx.tree, led);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("I3"), std::string::npos);
}

TEST(InvariantChecker, FlagsTransferFromWrongSource) {
  CheckerFixture fx;
  auto led = fx.clean();
  // Claims MDS 1 exported /b, but the fold says MDS 0 owned it.
  led.transfers.push_back({fx.b, 1, 0, 1, sim::millis(1)});
  const auto report = NamespaceInvariantChecker::check(fx.tree, led);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("I3"), std::string::npos);
}

TEST(InvariantChecker, FlagsMalformedTwoPhaseTraces) {
  CheckerFixture fx;
  {
    auto led = fx.clean();
    led.migrations.push_back(
        {JournalRecordKind::kCommit, fx.a, 0, 1, 1, sim::millis(1)});
    led.final_owner[fx.a] = 1;
    led.final_owner[fx.f] = 1;
    led.transfers.push_back({fx.a, 0, 1, 1, sim::millis(1)});
    const auto report = NamespaceInvariantChecker::check(fx.tree, led);
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.to_string().find("COMMIT without a PREPARE"),
              std::string::npos);
  }
  {
    auto led = fx.clean();
    led.migrations.push_back(
        {JournalRecordKind::kPrepare, fx.a, 0, 1, 1, sim::millis(1)});
    led.migrations.push_back(
        {JournalRecordKind::kPrepare, fx.a, 0, 1, 2, sim::millis(2)});
    const auto report = NamespaceInvariantChecker::check(fx.tree, led);
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.to_string().find("PREPAREd twice"), std::string::npos);
  }
  {
    auto led = fx.clean();  // commit epochs must strictly advance
    led.migrations.push_back(
        {JournalRecordKind::kPrepare, fx.b, 0, 1, 5, sim::millis(1)});
    led.migrations.push_back(
        {JournalRecordKind::kCommit, fx.b, 0, 1, 5, sim::millis(2)});
    led.migrations.push_back(
        {JournalRecordKind::kPrepare, fx.b, 1, 0, 5, sim::millis(3)});
    led.migrations.push_back(
        {JournalRecordKind::kCommit, fx.b, 1, 0, 5, sim::millis(4)});
    led.transfers.push_back({fx.b, 0, 1, 1, sim::millis(2)});
    led.transfers.push_back({fx.b, 1, 0, 2, sim::millis(4)});
    const auto report = NamespaceInvariantChecker::check(fx.tree, led);
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.to_string().find("does not advance"), std::string::npos);
  }
}

TEST(InvariantChecker, TrailingPrepareIsLegalCrashArtifact) {
  CheckerFixture fx;
  auto led = fx.clean();
  led.migrations.push_back(
      {JournalRecordKind::kPrepare, fx.a, 0, 1, 1, sim::millis(1)});
  // Crash before COMMIT: no transfer happened, source keeps the subtree.
  const auto report = NamespaceInvariantChecker::check(fx.tree, led);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(InvariantChecker, FlagsNonMonotoneJournalSeqnos) {
  CheckerFixture fx;
  auto led = fx.clean();
  MetadataJournal::View view;
  view.checkpoint_seqno = 10;
  view.live.push_back({JournalRecordKind::kOp, 9, 1, 0, 0, 0, 0});
  led.journals[0] = view;
  const auto report = NamespaceInvariantChecker::check(fx.tree, led);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("I5"), std::string::npos);
}

TEST(InvariantChecker, FlagsAckedMutationMissingFromEveryJournal) {
  CheckerFixture fx;
  auto led = fx.clean();
  led.acked_mutations.push_back(42);
  const auto missing = NamespaceInvariantChecker::check(fx.tree, led);
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.to_string().find("I6"), std::string::npos);

  // Durable either live in some journal or folded into a checkpoint.
  led.journals[1].checkpointed_ops.push_back(42);
  const auto folded = NamespaceInvariantChecker::check(fx.tree, led);
  EXPECT_TRUE(folded.ok()) << folded.to_string();
}

using recovery::DurabilityWindow;

/// Switches a clean ledger into async-commit mode with a small contract.
RecoveryLedger async_ledger(const CheckerFixture& fx) {
  RecoveryLedger led = fx.clean();
  led.async_commit = true;
  led.commit_window = sim::micros(100);
  led.commit_batch = 4;
  led.durability.resize(2);
  return led;
}

DurabilityWindow::OpRecord lost_record(std::uint64_t op_id,
                                       sim::SimTime appended,
                                       sim::SimTime acked, sim::SimTime lost) {
  DurabilityWindow::OpRecord rec;
  rec.op_id = op_id;
  rec.appended_at = appended;
  rec.acked_at = acked;
  rec.lost_at = lost;
  return rec;
}

TEST(InvariantChecker, AsyncReportedAckedLossSatisfiesI6) {
  CheckerFixture fx;
  auto led = async_ledger(fx);
  led.acked_mutations.push_back(42);
  // The crash path reported the loss: acked-but-lost is legal in async
  // mode as long as it is never silent.
  led.durability[0].push_back(
      lost_record(42, sim::micros(10), sim::micros(12), sim::micros(80)));
  const auto reported = NamespaceInvariantChecker::check(fx.tree, led);
  EXPECT_TRUE(reported.ok()) << reported.to_string();

  const auto audit = recovery::audit_durability(led);
  EXPECT_EQ(audit.acked_lost, 1u);
  EXPECT_EQ(audit.acked_durable, 0u);
  EXPECT_EQ(audit.unacked_lost_records, 0u);

  // The same missing op with NO loss report is still an I6 violation.
  led.durability[0].clear();
  const auto silent = NamespaceInvariantChecker::check(fx.tree, led);
  ASSERT_FALSE(silent.ok());
  EXPECT_NE(silent.to_string().find("I6"), std::string::npos);
  EXPECT_NE(silent.to_string().find("never reported lost"), std::string::npos);
}

TEST(InvariantChecker, FlagsDurableOpVanished) {
  CheckerFixture fx;
  auto led = async_ledger(fx);
  // A group commit stamped op 7 durable, but no journal holds it: I7.
  DurabilityWindow::OpRecord rec;
  rec.op_id = 7;
  rec.appended_at = sim::micros(1);
  rec.acked_at = sim::micros(2);
  rec.durable_at = sim::micros(3);
  led.durability[1].push_back(rec);
  const auto vanished = NamespaceInvariantChecker::check(fx.tree, led);
  ASSERT_FALSE(vanished.ok());
  EXPECT_NE(vanished.to_string().find("I7"), std::string::npos);

  // Folded into a checkpoint counts as retained.
  led.journals[0].checkpointed_ops.push_back(7);
  const auto folded = NamespaceInvariantChecker::check(fx.tree, led);
  EXPECT_TRUE(folded.ok()) << folded.to_string();
}

TEST(InvariantChecker, FlagsAckedLossBeyondWindowBound) {
  CheckerFixture fx;
  auto led = async_ledger(fx);
  // Buffered lifetime 150us exceeds the 100us window: the flush timer
  // would have fired first, so this loss breaks the contract (I8).
  led.durability[0].push_back(
      lost_record(11, sim::micros(0), sim::micros(10), sim::micros(150)));
  const auto report = NamespaceInvariantChecker::check(fx.tree, led);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("I8"), std::string::npos);
  EXPECT_NE(report.to_string().find("commit window"), std::string::npos);
}

TEST(InvariantChecker, FlagsCrashLossBeyondBatchBound) {
  CheckerFixture fx;
  auto led = async_ledger(fx);
  led.commit_batch = 2;
  // One crash instant sweeping 3 records off one MDS exceeds batch=2 (I8);
  // each record's age stays inside the window so only the batch bound fires.
  for (std::uint64_t op = 1; op <= 3; ++op) {
    led.durability[0].push_back(lost_record(
        op, sim::micros(40 + op), sim::micros(45 + op), sim::micros(90)));
  }
  const auto report = NamespaceInvariantChecker::check(fx.tree, led);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("I8"), std::string::npos);
  EXPECT_NE(report.to_string().find("commit batch"), std::string::npos);

  // The same sweep within the batch bound is a legal crash artifact.
  led.commit_batch = 4;
  const auto within = NamespaceInvariantChecker::check(fx.tree, led);
  EXPECT_TRUE(within.ok()) << within.to_string();
}

// ------------------------------------------------------------ integration --

cluster::ReplayOptions small_options() {
  cluster::ReplayOptions opt;
  opt.mds_count = 4;
  opt.clients = 16;
  opt.epoch_length = sim::millis(200);
  opt.warmup_epochs = 0;
  return opt;
}

wl::Trace small_trace() {
  wl::TraceRwConfig cfg;
  cfg.ops = 40'000;
  cfg.seed = 17;
  return wl::make_trace_rw(cfg);
}

/// Origami with a hand-written heuristic benefit model (activity share),
/// so migration-heavy integration tests need no GBDT training.
core::OrigamiBalancer heuristic_origami() {
  core::OrigamiBalancer::Params p;
  p.min_subtree_ops = 8;
  p.min_predicted_benefit = 0.0;
  core::BenefitPredictor pred = [](std::span<const float> feat) {
    return static_cast<double>(feat[3]) + static_cast<double>(feat[4]);
  };
  return core::OrigamiBalancer(std::move(pred), cost::CostModel{}, p,
                               core::RebalanceTrigger{0.0});
}

TEST(RecoveryReplay, CleanRunsCarryNoRecoveryState) {
  const auto trace = small_trace();
  const auto opt = small_options();  // faults disabled
  cluster::StaticBalancer balancer(cluster::StaticBalancer::Kind::kCoarseHash);
  const auto r = cluster::replay_trace(trace, opt, balancer);
  EXPECT_EQ(r.faults.journal_records, 0u);
  EXPECT_EQ(r.faults.journal_replays, 0u);
  EXPECT_EQ(r.faults.fenced_rejections, 0u);
  EXPECT_EQ(r.ledger, nullptr);
}

TEST(RecoveryReplay, CrashTriggersJournalReplayAndWindowedRecovery) {
  const auto trace = small_trace();
  cluster::ReplayOptions opt = small_options();
  fault::FaultWindow w;
  w.mds = 2;
  w.kind = fault::FaultKind::kCrash;
  w.from = sim::millis(250);
  w.until = sim::millis(450);
  opt.faults.scheduled.push_back(w);
  cluster::StaticBalancer balancer(cluster::StaticBalancer::Kind::kCoarseHash);
  const auto r = cluster::replay_trace(trace, opt, balancer);

  EXPECT_EQ(r.faults.crashes, 1u);
  EXPECT_GT(r.faults.journal_records, 0u);
  EXPECT_EQ(r.faults.journal_replays, 1u);
  EXPECT_GT(r.faults.journal_replayed_records, 0u);
  EXPECT_EQ(r.faults.torn_tail_truncations, 1u);  // crash tore the tail
  EXPECT_EQ(r.faults.recovery_windows, 1u);
  EXPECT_GT(r.faults.recovery_window_time, 0);
  EXPECT_GT(r.faults.recovery_queue_time, 0);

  ASSERT_NE(r.ledger, nullptr);
  EXPECT_FALSE(r.ledger->acked_mutations.empty());
  const auto report = NamespaceInvariantChecker::check(trace.tree, *r.ledger);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(RecoveryReplay, TwoPhaseMigrationSurvivesCrashWithOneOwner) {
  const auto trace = small_trace();
  cluster::ReplayOptions opt = small_options();
  // Crash an MDS mid-run while the balancer is actively migrating: every
  // fragment must end with exactly one live committed owner.
  fault::FaultWindow w;
  w.mds = 1;
  w.kind = fault::FaultKind::kCrash;
  w.from = sim::millis(420);
  w.until = sim::seconds(3600);  // never comes back
  opt.faults.scheduled.push_back(w);
  auto balancer = heuristic_origami();
  const auto r = cluster::replay_trace(trace, opt, balancer);

  EXPECT_GT(r.faults.prepared_migrations, 0u);
  EXPECT_GE(r.faults.prepared_migrations, r.faults.committed_migrations);
  for (std::uint32_t owner : r.final_dir_owner) EXPECT_NE(owner, 1u);

  ASSERT_NE(r.ledger, nullptr);
  const auto report = NamespaceInvariantChecker::check(trace.tree, *r.ledger);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(RecoveryReplay, BackToBackCrashesReplayTheJournalEachTime) {
  const auto trace = small_trace();
  cluster::ReplayOptions opt = small_options();
  // Same MDS crashes again at the very instant its first outage ends, i.e.
  // before the restore hands its fragments back: the second crash finds the
  // MDS owning nothing, but its journal must still be scanned (and the torn
  // tail truncated) or post-recovery appends would hide behind garbage.
  fault::FaultWindow w1;
  w1.mds = 2;
  w1.kind = fault::FaultKind::kCrash;
  w1.from = sim::millis(250);
  w1.until = sim::millis(300);
  fault::FaultWindow w2 = w1;
  w2.from = sim::millis(300);
  w2.until = sim::millis(420);
  opt.faults.scheduled.push_back(w1);
  opt.faults.scheduled.push_back(w2);
  cluster::StaticBalancer balancer(cluster::StaticBalancer::Kind::kCoarseHash);
  const auto r = cluster::replay_trace(trace, opt, balancer);

  EXPECT_EQ(r.faults.crashes, 2u);
  EXPECT_EQ(r.faults.journal_replays, 2u);
  EXPECT_EQ(r.faults.torn_tail_truncations, 2u);
  ASSERT_NE(r.ledger, nullptr);
  const auto report = NamespaceInvariantChecker::check(trace.tree, *r.ledger);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

cluster::ReplayOptions async_crash_options() {
  cluster::ReplayOptions opt = small_options();
  opt.faults.seed = 90;
  opt.faults.crash_prob = 0.10;
  opt.faults.crash_recovery = sim::millis(150);
  opt.recovery.commit_mode = recovery::CommitMode::kAsync;
  opt.recovery.commit_window = sim::millis(2);
  opt.recovery.commit_batch = 64;
  return opt;
}

TEST(RecoveryReplay, AsyncCommitCrashesHoldInvariantsAndReportLosses) {
  const auto trace = small_trace();
  const auto opt = async_crash_options();
  cluster::StaticBalancer balancer(cluster::StaticBalancer::Kind::kCoarseHash);
  const auto r = cluster::replay_trace(trace, opt, balancer);

  EXPECT_GT(r.faults.crashes, 0u);
  EXPECT_GT(r.faults.group_commits, 0u);
  EXPECT_GT(r.faults.group_commit_records, 0u);
  // This schedule crashes into non-empty commit buffers: losses happen,
  // and every one is reported rather than silent (I6/I8 below).
  EXPECT_GT(r.faults.acked_lost_ops + r.faults.unacked_lost_ops, 0u);

  ASSERT_NE(r.ledger, nullptr);
  EXPECT_TRUE(r.ledger->async_commit);
  EXPECT_EQ(r.ledger->commit_window, opt.recovery.commit_window);
  const auto report = NamespaceInvariantChecker::check(trace.tree, *r.ledger);
  EXPECT_TRUE(report.ok()) << report.to_string();

  // Global accounting closes: every acked op is durable or lost, and the
  // per-record loss count upper-bounds the per-op one (a retried op can
  // lose one buffered copy yet survive through another journal).
  const auto audit = recovery::audit_durability(*r.ledger);
  EXPECT_EQ(audit.acked_durable + audit.acked_lost,
            r.ledger->acked_mutations.size());
  EXPECT_LE(audit.acked_lost, r.faults.acked_lost_ops);
}

TEST(RecoveryReplay, AsyncCommitModelIsDeterministic) {
  const auto trace = small_trace();
  const auto opt = async_crash_options();
  cluster::StaticBalancer a(cluster::StaticBalancer::Kind::kCoarseHash);
  cluster::StaticBalancer b(cluster::StaticBalancer::Kind::kCoarseHash);
  const auto ra = cluster::replay_trace(trace, opt, a);
  const auto rb = cluster::replay_trace(trace, opt, b);
  EXPECT_EQ(ra.makespan, rb.makespan);
  EXPECT_EQ(ra.faults.group_commits, rb.faults.group_commits);
  EXPECT_EQ(ra.faults.group_commit_records, rb.faults.group_commit_records);
  EXPECT_EQ(ra.faults.acked_lost_ops, rb.faults.acked_lost_ops);
  EXPECT_EQ(ra.faults.unacked_lost_ops, rb.faults.unacked_lost_ops);
  EXPECT_EQ(ra.faults.max_commit_lag, rb.faults.max_commit_lag);
}

TEST(RecoveryReplay, StaleEpochRequestsAreFencedAndRerouted) {
  const auto trace = small_trace();
  cluster::ReplayOptions opt = small_options();
  // Stragglers stretch the window between planning a request and its
  // arrival, so live migrations race ahead of in-flight requests.
  opt.faults.seed = 7;
  opt.faults.straggler_prob = 0.4;
  opt.faults.straggler_slow = 5.0;
  opt.faults.straggler_duration = sim::millis(150);
  auto balancer = heuristic_origami();
  const auto r = cluster::replay_trace(trace, opt, balancer);

  EXPECT_GT(r.faults.committed_migrations, 0u);
  EXPECT_GT(r.faults.fenced_rejections, 0u);
  // Fenced requests are re-routed, not failed: the run still completes.
  EXPECT_EQ(r.completed_ops + r.faults.failed_ops, 40'000u);
  ASSERT_NE(r.ledger, nullptr);
  const auto report = NamespaceInvariantChecker::check(trace.tree, *r.ledger);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// ----------------------------------------------------- live-mode recovery --

/// Activity-share benefit model, trained in-test (the live origami form
/// takes a GbdtModel, not a raw predictor).
std::shared_ptr<ml::GbdtModel> live_benefit_model() {
  ml::Dataset data(core::feature_name_vector());
  common::Xoshiro256 rng(5);
  std::vector<float> row(core::kFeatureCount);
  for (int i = 0; i < 1'500; ++i) {
    for (auto& x : row) x = static_cast<float>(rng.uniform_double());
    data.add_row(row, row[3] + row[4]);
  }
  ml::GbdtParams params;
  params.rounds = 30;
  return std::make_shared<ml::GbdtModel>(ml::GbdtModel::train(data, params));
}

/// Sabotage: the first PREPARE's destination "dies" right after PREPARE,
/// so the commit check must roll the subtree back to its source. Every
/// transition still reaches the engine's context.
class DoomFirstDestination final : public fs::LiveFaultContext {
 public:
  DoomFirstDestination(fs::LiveFaultContext& inner, const fs::OrigamiFs& fsys,
                       std::uint64_t& commits, std::uint64_t& aborts)
      : inner_(inner), fsys_(fsys), commits_(commits), aborts_(aborts) {}

  [[nodiscard]] bool shard_down(std::uint32_t shard) const override {
    return shard == doomed_ || inner_.shard_down(shard);
  }
  void record_prepare(fs::Ino subtree, std::uint32_t from,
                      std::uint32_t to) override {
    inner_.record_prepare(subtree, from, to);
    if (doomed_ == UINT32_MAX) doomed_ = to;
  }
  void record_commit(fs::Ino subtree, std::uint32_t from,
                     std::uint32_t to) override {
    ++commits_;
    inner_.record_commit(subtree, from, to);
  }
  void record_abort(fs::Ino subtree, std::uint32_t from,
                    std::uint32_t to) override {
    ++aborts_;
    inner_.record_abort(subtree, from, to);
    // The rollback already ran: the subtree is home again.
    EXPECT_EQ(fsys_.dir_shard(subtree), from);
  }

 private:
  fs::LiveFaultContext& inner_;
  const fs::OrigamiFs& fsys_;
  std::uint64_t& commits_;
  std::uint64_t& aborts_;
  std::uint32_t doomed_ = UINT32_MAX;
};

TEST(LiveRecovery, TwoPhaseAbortRollsBackAndPairsPhases) {
  wl::TraceRwConfig cfg;
  cfg.ops = 40'000;
  cfg.projects = 6;
  cfg.modules_per_project = 4;
  cfg.sources_per_module = 10;
  cfg.headers_shared = 60;
  cfg.seed = 31;
  const wl::Trace trace = wl::make_trace_rw(cfg);

  fs::OrigamiFs::Options fopt;
  fopt.shards = 3;
  fs::OrigamiFs fsys(fopt);

  policy::PolicyContext pctx;
  pctx.benefit_model = live_benefit_model();
  auto made = policy::Registry::builtin().make_live(
      "origami:min-ops=16,min-benefit=0", pctx);
  ASSERT_TRUE(made.is_ok()) << made.status().to_string();
  const auto live = std::move(made).value();
  std::uint64_t aborts_seen = 0;
  std::uint64_t commits_seen = 0;

  fs::LiveReplayOptions opt;
  opt.epoch_ops = 8'000;
  // Arm the fault layer (journals, two-phase accounting) without letting a
  // crash interfere: the only scheduled window opens hours past the ~7s
  // virtual makespan, in a sampling epoch that never materialises.
  opt.faults.scheduled.push_back(
      {0, sim::seconds(10'000), sim::seconds(10'001), fault::FaultKind::kCrash,
       1.0});
  opt.on_epoch = [&](fs::OrigamiFs& f, fs::LiveFaultContext& ctx) {
    // A fresh saboteur per epoch: each epoch's first move is doomed.
    DoomFirstDestination doomed(ctx, f, commits_seen, aborts_seen);
    return live->on_epoch(f, doomed);
  };

  const auto stats = fs::replay_on_live(trace, fsys, opt);
  EXPECT_GT(stats.epochs, 2u);
  EXPECT_GT(stats.faults.prepared_migrations, 0u);
  EXPECT_GT(stats.faults.aborted_migrations, 0u);
  // Every PREPARE resolves to exactly one COMMIT or ABORT.
  EXPECT_EQ(
      stats.faults.prepared_migrations,
      stats.faults.committed_migrations + stats.faults.aborted_migrations);
  EXPECT_EQ(stats.faults.aborted_migrations, aborts_seen);
  EXPECT_EQ(stats.faults.committed_migrations, commits_seen);
  EXPECT_GT(stats.faults.journal_records, 0u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(LiveRecovery, AsyncCommitGroupCommitsOnTheVirtualClock) {
  wl::TraceRwConfig cfg;
  cfg.ops = 40'000;
  cfg.seed = 23;
  const wl::Trace trace = wl::make_trace_rw(cfg);

  fs::OrigamiFs::Options fopt;
  fopt.shards = 3;
  fs::OrigamiFs fsys(fopt);

  fs::LiveReplayOptions opt;
  // One crash window on the virtual clock, landing mid-trace.
  opt.faults.scheduled.push_back(
      {1, sim::seconds(2), sim::millis(2'500), fault::FaultKind::kCrash, 1.0});
  opt.recovery.commit_mode = recovery::CommitMode::kAsync;
  opt.recovery.commit_window = sim::micros(500);  // virtual-clock age trigger
  opt.recovery.commit_batch = 16;

  const auto stats = fs::replay_on_live(trace, fsys, opt);
  EXPECT_EQ(stats.faults.crashes, 1u);
  EXPECT_GT(stats.faults.journal_records, 0u);
  EXPECT_GT(stats.faults.group_commits, 0u);
  EXPECT_GT(stats.faults.group_commit_records, 0u);
  // Acked mutations flushed by count or age; only the crash loses records,
  // and never more than one batch's worth from the crashed shard.
  EXPECT_LE(stats.faults.acked_lost_ops + stats.faults.unacked_lost_ops,
            static_cast<std::uint64_t>(opt.recovery.commit_batch));
}

TEST(RecoveryReplay, RecoveryModelIsDeterministic) {
  const auto trace = small_trace();
  cluster::ReplayOptions opt = small_options();
  opt.faults.seed = 90;
  opt.faults.crash_prob = 0.10;
  opt.faults.crash_recovery = sim::millis(150);
  cluster::StaticBalancer a(cluster::StaticBalancer::Kind::kCoarseHash);
  cluster::StaticBalancer b(cluster::StaticBalancer::Kind::kCoarseHash);
  const auto ra = cluster::replay_trace(trace, opt, a);
  const auto rb = cluster::replay_trace(trace, opt, b);
  EXPECT_EQ(ra.makespan, rb.makespan);
  EXPECT_EQ(ra.faults.journal_records, rb.faults.journal_records);
  EXPECT_EQ(ra.faults.journal_replayed_records,
            rb.faults.journal_replayed_records);
  EXPECT_EQ(ra.faults.fenced_rejections, rb.faults.fenced_rejections);
  EXPECT_EQ(ra.faults.recovery_queue_time, rb.faults.recovery_queue_time);
}

}  // namespace
}  // namespace origami
