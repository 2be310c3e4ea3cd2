#pragma once

// The exact workloads and option sets behind the arrival-plane golden
// fingerprints, captured against the pre-refactor tree (hard-coded
// closed/open loops inside the engines); tests/arrival_test.cpp replays
// them through the ArrivalPolicy plane and demands the same bytes. Change
// anything here and the committed goldens are void — regenerate with
// tools/goldens.cpp (family `arrival`) and re-audit the diff.

#include <cstdint>

#include "origami/cluster/options.hpp"
#include "origami/fs/live_replay.hpp"
#include "origami/sim/time.hpp"
#include "origami/wl/generators.hpp"

namespace origami::testing {

inline constexpr const char* kGoldenEpochOpenArrival = "open:rate=120000";
inline constexpr const char* kGoldenLiveOpenArrival = "paced:rate=150000";

inline wl::Trace golden_trace(std::uint64_t seed) {
  wl::TraceRwConfig cfg;
  cfg.ops = 20'000;
  cfg.projects = 4;
  cfg.modules_per_project = 3;
  cfg.sources_per_module = 8;
  cfg.headers_shared = 40;
  cfg.seed = seed;
  return wl::make_trace_rw(cfg);
}

inline cluster::ReplayOptions golden_epoch_options(std::uint64_t seed,
                                                   bool faulted, bool open) {
  cluster::ReplayOptions opt;
  opt.mds_count = 5;
  opt.clients = 8;
  opt.epoch_length = sim::millis(100);
  opt.warmup_epochs = 1;
  opt.seed = seed + 100;
  if (open) opt.arrival = kGoldenEpochOpenArrival;
  if (faulted) {
    opt.faults.seed = seed * 1000 + 7;
    opt.faults.crash_prob = 0.05;
    opt.faults.crash_recovery = sim::millis(40);
    opt.faults.straggler_prob = 0.1;
    opt.faults.rpc_loss_prob = 0.001;
    opt.retry.max_retries = 4;
    opt.retry.timeout = sim::millis(2);
    opt.recovery.commit_mode = recovery::CommitMode::kAsync;
    opt.recovery.commit_window = sim::millis(1);
    opt.recovery.commit_batch = 32;
    opt.recovery.fencing = true;
  }
  return opt;
}

inline fs::LiveReplayOptions golden_live_options(std::uint64_t seed,
                                                 bool faulted, bool open) {
  fs::LiveReplayOptions opt;
  opt.epoch_ops = 4'000;
  if (open) opt.arrival = kGoldenLiveOpenArrival;
  if (faulted) {
    opt.faults.seed = seed * 1000 + 7;
    opt.faults.crash_prob = 0.15;
    opt.faults.crash_recovery = sim::millis(300);
    opt.faults.straggler_prob = 0.2;
    opt.faults.rpc_loss_prob = 0.003;
    opt.recovery.commit_mode = recovery::CommitMode::kAsync;
    opt.recovery.commit_window = sim::millis(1);
    opt.recovery.commit_batch = 32;
    opt.recovery.fencing = true;
  }
  return opt;
}

}  // namespace origami::testing
