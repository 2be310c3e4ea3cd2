#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "origami/sim/time.hpp"

namespace origami::recovery {

/// Per-MDS ledger of the async-commit contract: for every op record that
/// entered the commit buffer it tracks when the record was appended, when
/// the client saw the acknowledgement, and when a group-commit flush made
/// it durable — or, after a crash, when the unflushed record was lost.
///
/// The `(acked_at, durable_at)` pair is the durability window the paper's
/// async-metadata direction reasons about: an op acknowledged at `acked_at`
/// is exposed to loss until `durable_at`. A crash inside that window turns
/// the record into an *acked-but-lost* entry (`lost_at` set, `acked_at`
/// set); a record that was never acknowledged becomes *unacked-and-lost*.
/// The invariant checker consumes these histories to enforce I7 (durable
/// ops are never lost) and I8 (acked losses are bounded by the configured
/// window and always reported).
///
/// Timestamps are virtual nanoseconds in both engines: the DES clock in the
/// simulator, the cost-model clock in live mode.
class DurabilityWindow {
 public:
  /// Sentinel for "this event never happened (yet)".
  static constexpr sim::SimTime kNever = -1;

  struct OpRecord {
    std::uint64_t op_id = 0;
    sim::SimTime appended_at = 0;      ///< entered the commit buffer
    sim::SimTime acked_at = kNever;    ///< client-visible completion
    sim::SimTime durable_at = kNever;  ///< group-commit flush landed
    sim::SimTime lost_at = kNever;     ///< crash dropped the buffered record
  };

  /// What one crash swept out of the commit buffer, classified by the ack
  /// state known at the crash instant. (A reply still in flight at the
  /// crash can land afterwards; finalization re-classifies from `history`,
  /// where `on_ack` keeps stamping even lost entries.)
  struct LossReport {
    std::vector<OpRecord> acked_lost;
    std::uint64_t unacked_lost = 0;
  };

  /// A new record entered the commit buffer.
  void on_append(std::uint64_t op_id, sim::SimTime at);

  /// The client acknowledgement for `op_id` completed. Stamps every
  /// history entry of that op that has no ack yet (duplicates from
  /// at-least-once retries are all covered), including entries already
  /// flushed or lost — the pair must stay truthful for the audit.
  void on_ack(std::uint64_t op_id, sim::SimTime at);

  /// A group-commit flush made every buffered record durable.
  void on_flush(sim::SimTime at);

  /// A crash dropped every buffered record. Returns the classified loss.
  LossReport on_crash(sim::SimTime at);

  /// Records currently buffered (appended, neither durable nor lost).
  [[nodiscard]] std::size_t open_count() const noexcept {
    return open_.size();
  }
  /// Append time of the oldest buffered record (kNever when none).
  [[nodiscard]] sim::SimTime oldest_open_at() const noexcept {
    return open_.empty() ? kNever : history_[open_.front()].appended_at;
  }

  /// Worst observed ack-to-durable exposure (0 when every record was
  /// durable before its ack, or nothing was acked).
  [[nodiscard]] sim::SimTime max_ack_to_durable() const noexcept {
    return max_lag_;
  }

  /// Full append history, in append order.
  [[nodiscard]] const std::vector<OpRecord>& history() const noexcept {
    return history_;
  }

 private:
  std::vector<OpRecord> history_;
  std::vector<std::size_t> open_;  ///< history indices still buffered
  /// op_id -> history indices awaiting their ack stamp.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> awaiting_ack_;
  sim::SimTime max_lag_ = 0;
};

}  // namespace origami::recovery
