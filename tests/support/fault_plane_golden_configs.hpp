#pragma once

// The workloads and option sets behind the fault-plane golden fingerprints
// (tests/support/fault_plane_goldens.inc). They cover the crash paths the
// arrival goldens miss: the epoch engine over real per-MDS stores in sync
// and async commit, and the live engine with group-committing shard stores
// under a live policy, so failover and restore meet migrated fragments.
// tools/goldens.cpp (family `fault-plane`) captured the committed
// fingerprints; change anything here and they are void — regenerate with
// the tool and re-audit the diff.

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "origami/cluster/options.hpp"
#include "origami/cluster/replay.hpp"
#include "origami/fs/live_replay.hpp"
#include "origami/fs/origami_fs.hpp"
#include "origami/policy/registry.hpp"
#include "origami/sim/time.hpp"
#include "origami/wl/generators.hpp"

#include "fingerprints.hpp"

namespace origami::testing {

/// The epoch engine's policy; greedy-spill moves fragments every epoch, so
/// crashes land on migrated state without a trained model.
inline constexpr const char* kFaultPlaneEpochPolicy = "greedy-spill";
/// The live engine's policy (a live-form registry entry).
inline constexpr const char* kFaultPlaneLivePolicy = "hash-repart";
inline constexpr std::uint32_t kFaultPlaneLiveShards = 4;

/// A small MIDAS-style trace: bursty job storms over shared hot dirs, the
/// write-heavy shape of the benchmark's midas-faulted workload.
inline wl::Trace fault_plane_trace(std::uint64_t seed) {
  wl::TraceMidasConfig cfg;
  cfg.seed = seed;
  cfg.jobs = 4;
  cfg.ranks_per_job = 8;
  cfg.files_per_rank = 12;
  cfg.ops = 20'000;
  return wl::make_trace_midas(cfg);
}

/// Epoch engine, faults armed, every MDS backed by a real KV store.
/// `async` selects group-committed journaling (the stores group-commit
/// with it, in memory) over durable-before-ack sync journaling.
inline cluster::ReplayOptions fault_plane_epoch_options(std::uint64_t seed,
                                                        bool async) {
  cluster::ReplayOptions opt;
  opt.mds_count = 5;
  opt.clients = 8;
  opt.epoch_length = sim::millis(20);
  opt.warmup_epochs = 1;
  opt.seed = seed + 300;
  opt.kv_backing = true;
  opt.faults.seed = seed * 1000 + 11;
  opt.faults.crash_prob = 0.08;
  opt.faults.crash_recovery = sim::millis(15);
  opt.faults.straggler_prob = 0.1;
  opt.faults.straggler_duration = sim::millis(10);
  opt.faults.rpc_loss_prob = 0.001;
  opt.retry.max_retries = 4;
  opt.retry.timeout = sim::millis(2);
  opt.recovery.capture_ledger = true;
  if (async) {
    opt.recovery.commit_mode = recovery::CommitMode::kAsync;
    opt.recovery.commit_window = sim::millis(1);
    opt.recovery.commit_batch = 32;
  }
  return opt;
}

/// Live engine shards whose stores group-commit (kv::CommitMode::kAsync).
inline fs::OrigamiFs::Options fault_plane_fs_options() {
  fs::OrigamiFs::Options fopt;
  fopt.shards = kFaultPlaneLiveShards;
  fopt.db.commit_mode = kv::CommitMode::kAsync;
  fopt.db.commit_batch = 32;
  return fopt;
}

/// Live engine, faults armed, async journaling. The caller wires
/// `kFaultPlaneLivePolicy` into `on_epoch`.
inline fs::LiveReplayOptions fault_plane_live_options(std::uint64_t seed) {
  fs::LiveReplayOptions opt;
  opt.epoch_ops = 1'000;
  opt.faults.seed = seed * 1000 + 13;
  opt.faults.crash_prob = 0.2;
  opt.faults.crash_recovery = sim::millis(200);
  opt.faults.straggler_prob = 0.2;
  opt.faults.rpc_loss_prob = 0.003;
  opt.recovery.commit_mode = recovery::CommitMode::kAsync;
  opt.recovery.commit_window = sim::millis(1);
  opt.recovery.commit_batch = 32;
  opt.recovery.fencing = true;
  return opt;
}

/// Replays one epoch config and returns its fault-plane fingerprint.
inline std::string fault_plane_epoch_run(std::uint64_t seed, bool async) {
  const wl::Trace trace = fault_plane_trace(seed);
  const cluster::ReplayOptions opt = fault_plane_epoch_options(seed, async);
  policy::PolicyContext ctx;
  ctx.options = &opt;
  auto made = policy::Registry::builtin().make(kFaultPlaneEpochPolicy, ctx);
  if (!made.is_ok()) throw std::runtime_error(made.status().to_string());
  return fault_plane_fingerprint(
      cluster::replay_trace(trace, opt, *made.value()));
}

/// Replays the live config under its policy and returns its fault-plane
/// fingerprint.
inline std::string fault_plane_live_run(std::uint64_t seed) {
  const wl::Trace trace = fault_plane_trace(seed);
  policy::PolicyContext ctx;
  auto made = policy::Registry::builtin().make_live(kFaultPlaneLivePolicy, ctx);
  if (!made.is_ok()) throw std::runtime_error(made.status().to_string());
  const std::unique_ptr<policy::LivePolicy> live = std::move(made).value();
  fs::OrigamiFs fsys(fault_plane_fs_options());
  fs::LiveReplayOptions opt = fault_plane_live_options(seed);
  opt.on_epoch = [&live](fs::OrigamiFs& f, fs::LiveFaultContext& c) {
    return live->on_epoch(f, c);
  };
  return fault_plane_fingerprint(fs::replay_on_live(trace, fsys, opt));
}

}  // namespace origami::testing
