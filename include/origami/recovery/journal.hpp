#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "origami/fsns/types.hpp"
#include "origami/kv/wal.hpp"
#include "origami/recovery/durability.hpp"
#include "origami/sim/time.hpp"

namespace origami::recovery {

/// When a journaled mutation becomes durable relative to its client ack.
enum class CommitMode : std::uint8_t {
  /// Every record pays its fsync share before the op completes (PR-4
  /// behaviour; the default, bit-identical to earlier trees).
  kSync = 0,
  /// Records accumulate in a bounded commit buffer and are flushed by
  /// size (`commit_batch`) or time (`commit_window`) thresholds; the op
  /// completes client-side on memtable apply, before durability.
  kAsync = 1,
};

/// Tunables of the durable-recovery model. Every cost is virtual time
/// charged to the DES clock; like the fault layer, the whole subsystem is
/// inert unless fault injection is armed, so the clean path stays
/// bit-identical to a build without it.
struct RecoveryParams {
  /// Durability charge per journaled mutation (group-commit fsync share).
  sim::SimTime t_fsync = sim::micros(2);
  /// Fixed cost of opening and scanning a journal at recovery.
  sim::SimTime t_replay_base = sim::micros(500);
  /// Per-record apply cost during journal replay.
  sim::SimTime t_replay_per_record = sim::micros(1);
  /// Cost of writing a checkpoint (charged to the journaling MDS).
  sim::SimTime t_checkpoint = sim::micros(300);
  /// Records between checkpoints; bounds replay work after a crash.
  std::uint32_t checkpoint_every = 4096;
  /// Reject and re-route requests that arrive at an MDS which no longer
  /// owns the fragment (stale ownership epoch).
  bool fencing = true;
  /// Collect a RecoveryLedger during faulty runs so the
  /// NamespaceInvariantChecker can audit the run afterwards.
  bool capture_ledger = true;
  /// Sync (durable-before-ack) or async (group-committed) journaling.
  CommitMode commit_mode = CommitMode::kSync;
  /// Async mode: max age of a buffered record before a flush is forced.
  /// Measured on the plane's virtual clock (nanoseconds) in both the DES
  /// engine and live replay.
  sim::SimTime commit_window = sim::millis(2);
  /// Async mode: flush as soon as this many records are buffered.
  std::uint32_t commit_batch = 64;
};

/// What a journal entry describes.
enum class JournalRecordKind : std::uint8_t {
  kOp = 1,       ///< acknowledged metadata mutation (op_id, target node)
  kPrepare = 2,  ///< two-phase migration: intent logged at both endpoints
  kCommit = 3,   ///< two-phase migration: ownership transferred
  kAbort = 4,    ///< two-phase migration: intent cancelled, source keeps
  kFailover = 5, ///< crash failover: fragment absorbed by a survivor
  kRestore = 6,  ///< recovery: fragment handed back to the restarted MDS
};

struct JournalRecord {
  JournalRecordKind kind = JournalRecordKind::kOp;
  std::uint64_t seqno = 0;
  std::uint64_t op_id = 0;   ///< kOp only
  fsns::NodeId node = 0;     ///< op target, or migrated fragment/subtree root
  std::uint32_t from = 0;    ///< migration source
  std::uint32_t to = 0;      ///< migration destination
  std::uint32_t epoch = 0;   ///< fragment ownership epoch after the event
};

/// The per-MDS metadata journal: every mutating metadata op and every
/// migration event is framed as a `kv::WriteAheadLog` record before it is
/// acknowledged. Checkpoints fold acknowledged ops into a summary and reset
/// the log so crash-replay work stays bounded; a crash can leave a torn
/// partial record at the tail, which recovery truncates.
///
/// In `CommitMode::kAsync` op records first land in a bounded commit
/// buffer; `flush()` group-commits the buffer into the WAL for a single
/// fsync charge, and a crash (`crash_drop_pending`) sweeps the buffer away
/// instead of tearing the WAL tail. Migration-protocol records always
/// force the buffer out first so WAL order equals seqno order.
class MetadataJournal {
 public:
  explicit MetadataJournal(const RecoveryParams& params) : params_(params) {}

  /// Appends one acknowledged-mutation record. Sync mode: returns the
  /// virtual-time durability charge (fsync share, plus the checkpoint cost
  /// when this append crosses the compaction threshold). Async mode:
  /// buffers the record, stamps `now` as its append time in the
  /// durability window, and returns 0 — durability is paid by `flush`.
  sim::SimTime append_op(std::uint64_t op_id, fsns::NodeId node,
                         sim::SimTime now = 0);

  /// Appends one migration-protocol record (PREPARE/COMMIT/ABORT/FAILOVER/
  /// RESTORE). Same return convention as `append_op`, except that in async
  /// mode the pending buffer is flushed first (cost included) so protocol
  /// records are always durable when their call returns.
  sim::SimTime append_migration(JournalRecordKind kind, fsns::NodeId subtree,
                                std::uint32_t from, std::uint32_t to,
                                std::uint32_t epoch, sim::SimTime now = 0);

  /// Async mode: the client-visible completion of `op_id` happened at
  /// `now`. Stamps the durability window; no-op in sync mode.
  void note_acked(std::uint64_t op_id, sim::SimTime now);

  /// Async mode: group-commits every buffered record into the WAL.
  /// Returns the durability charge (one fsync share, plus a checkpoint if
  /// the flush crosses the threshold); 0 when nothing was buffered.
  sim::SimTime flush(sim::SimTime now);

  /// Async crash path: drops every buffered (never-flushed) record and
  /// returns them classified by ack state at the crash instant. Must be
  /// called before `simulate_torn_write`/`recover_replay` so the loss is
  /// attributed to the buffer, not the torn tail.
  DurabilityWindow::LossReport crash_drop_pending(sim::SimTime now);

  /// Fault-injection hook: leaves a garbage partial record at the tail, as
  /// a writer that crashed mid-append would.
  void simulate_torn_write();

  struct RecoveryOutcome {
    std::uint64_t replayed_records = 0;
    std::uint64_t dropped_bytes = 0;
    bool torn_tail = false;
    /// Priced replay work: t_replay_base + records · t_replay_per_record.
    sim::SimTime replay_time = 0;
  };
  /// Crash-recovery scan: decodes the journal, truncates any torn tail so
  /// post-recovery appends land on a clean log, and prices the replay.
  RecoveryOutcome recover_replay();

  /// Decoded snapshot for auditing (does not truncate or mutate the log).
  struct View {
    std::vector<JournalRecord> live;             ///< records still in the WAL
    std::vector<std::uint64_t> checkpointed_ops; ///< op ids folded away
    std::uint64_t checkpoint_seqno = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t torn_truncations = 0;
  };
  [[nodiscard]] View snapshot() const;

  [[nodiscard]] std::uint64_t last_seqno() const noexcept { return seqno_; }
  [[nodiscard]] std::uint64_t appended() const noexcept { return appended_; }
  [[nodiscard]] std::uint64_t records_since_checkpoint() const noexcept {
    return since_checkpoint_;
  }
  [[nodiscard]] std::uint64_t checkpoints() const noexcept {
    return checkpoints_;
  }
  [[nodiscard]] std::uint64_t torn_truncations() const noexcept {
    return torn_truncations_;
  }
  /// Records buffered but not yet flushed (always 0 in sync mode).
  [[nodiscard]] std::size_t pending_records() const noexcept {
    return pending_.size();
  }
  /// Append time of the oldest buffered record (DurabilityWindow::kNever
  /// when the buffer is empty).
  [[nodiscard]] sim::SimTime oldest_pending_at() const noexcept {
    return window_.oldest_open_at();
  }
  /// Bumped by every flush or crash-drop; a scheduled flush timer compares
  /// generations to detect that its batch is already gone.
  [[nodiscard]] std::uint64_t flush_generation() const noexcept {
    return flush_gen_;
  }
  /// Group-commit flushes that actually wrote records.
  [[nodiscard]] std::uint64_t group_commits() const noexcept {
    return group_commits_;
  }
  /// Op records made durable by group-commit flushes.
  [[nodiscard]] std::uint64_t group_commit_records() const noexcept {
    return group_commit_records_;
  }
  /// Per-op (acked_at, durable_at) bookkeeping; empty in sync mode.
  [[nodiscard]] const DurabilityWindow& durability() const noexcept {
    return window_;
  }

  /// Test hook: runs a checkpoint fold immediately. Callers must ensure
  /// the pending buffer is empty (flush first in async mode) so the
  /// checkpoint watermark never covers unflushed seqnos.
  sim::SimTime checkpoint_now() { return checkpoint(); }

 private:
  struct PendingRecord {
    std::string key;
    std::string value;
    std::uint64_t seqno = 0;
  };

  sim::SimTime append_record(const JournalRecord& rec);
  /// Folds the live log into the checkpoint summary and resets it.
  sim::SimTime checkpoint();

  RecoveryParams params_;
  kv::WriteAheadLog wal_;
  std::uint64_t seqno_ = 0;
  std::uint64_t appended_ = 0;
  std::uint64_t since_checkpoint_ = 0;
  std::uint64_t checkpoint_seqno_ = 0;
  std::uint64_t checkpoints_ = 0;
  std::uint64_t torn_truncations_ = 0;
  std::vector<std::uint64_t> checkpointed_ops_;
  // --- async commit state (untouched in sync mode) ---
  std::vector<PendingRecord> pending_;
  DurabilityWindow window_;
  std::uint64_t flush_gen_ = 0;
  std::uint64_t group_commits_ = 0;
  std::uint64_t group_commit_records_ = 0;
};

}  // namespace origami::recovery
