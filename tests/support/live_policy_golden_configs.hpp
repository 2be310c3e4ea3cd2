#pragma once

// The workloads and option sets behind the live-policy golden fingerprints
// (tests/support/live_policy_goldens.inc). They pin every registry entry
// whose live form migrates — its trigger, candidate order, destination
// rule, freeze walk and two-phase narration — byte for byte, clean and
// under crash/straggler/loss faults. tools/goldens.cpp (family
// `live-policy`) captured the committed fingerprints; change anything here
// and they are void — regenerate with the tool and re-audit the diff.

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "origami/common/rng.hpp"
#include "origami/core/features.hpp"
#include "origami/fs/live_replay.hpp"
#include "origami/fs/origami_fs.hpp"
#include "origami/ml/gbdt.hpp"
#include "origami/policy/registry.hpp"
#include "origami/sim/time.hpp"
#include "origami/wl/generators.hpp"

#include "fingerprints.hpp"

namespace origami::testing {

/// One spec per migrating live form, with the golden key it files under.
struct LivePolicyGoldenSpec {
  const char* key;
  const char* spec;
};
inline constexpr LivePolicyGoldenSpec kLivePolicyGoldenSpecs[] = {
    {"origami", "origami:min-benefit=0"},
    {"greedy-spill", "greedy-spill"},
    {"hash-repart", "hash-repart"},
    {"load-frac", "load-frac"},
};
inline constexpr std::uint32_t kLivePolicyShards = 5;

/// A benefit model that predicts the subtree read share (feature 3): a
/// deterministic stand-in for the trained regressor, so live origami
/// decides something without a simulator training run.
inline std::shared_ptr<const ml::GbdtModel> read_share_model() {
  static const std::shared_ptr<const ml::GbdtModel> model = [] {
    ml::Dataset data(core::feature_name_vector());
    common::Xoshiro256 rng(5);
    std::vector<float> row(core::kFeatureCount);
    for (int i = 0; i < 2'000; ++i) {
      for (auto& x : row) x = static_cast<float>(rng.uniform_double());
      data.add_row(row, row[3]);
    }
    ml::GbdtParams params;
    params.rounds = 40;
    return std::make_shared<const ml::GbdtModel>(
        ml::GbdtModel::train(data, params));
  }();
  return model;
}

inline wl::Trace live_policy_trace(std::uint64_t seed) {
  wl::TraceRwConfig cfg;
  cfg.ops = 20'000;
  cfg.projects = 5;
  cfg.modules_per_project = 4;
  cfg.sources_per_module = 8;
  cfg.headers_shared = 40;
  cfg.seed = seed;
  return wl::make_trace_rw(cfg);
}

inline fs::LiveReplayOptions live_policy_options(std::uint64_t seed,
                                                 bool faulted) {
  fs::LiveReplayOptions opt;
  opt.epoch_ops = 800;
  if (faulted) {
    opt.faults.seed = seed * 1000 + 17;
    opt.faults.crash_prob = 0.15;
    opt.faults.crash_recovery = sim::millis(300);
    opt.faults.straggler_prob = 0.2;
    opt.faults.rpc_loss_prob = 0.003;
    opt.recovery.fencing = true;
  }
  return opt;
}

/// Replays one config under `spec`'s live form and returns its
/// fingerprint. Throws when the run could not pin anything: a golden run
/// must migrate, and a faulted one must crash.
inline std::string live_policy_run(const std::string& spec,
                                   std::uint64_t seed, bool faulted) {
  policy::PolicyContext ctx;
  ctx.benefit_model = read_share_model();
  auto made = policy::Registry::builtin().make_live(spec, ctx);
  if (!made.is_ok()) throw std::runtime_error(made.status().to_string());
  const std::unique_ptr<policy::LivePolicy> live = std::move(made).value();
  fs::OrigamiFs::Options fopt;
  fopt.shards = kLivePolicyShards;
  fs::OrigamiFs fsys(fopt);
  fs::LiveReplayOptions opt = live_policy_options(seed, faulted);
  opt.on_epoch = [&live](fs::OrigamiFs& f, fs::LiveFaultContext& c) {
    return live->on_epoch(f, c);
  };
  const fs::LiveReplayStats stats =
      fs::replay_on_live(live_policy_trace(seed), fsys, opt);
  const std::string run = spec + " seed " + std::to_string(seed) +
                          (faulted ? " faulted" : " clean");
  if (stats.migrations == 0) {
    throw std::runtime_error("vacuous live-policy golden (no migration): " +
                             run);
  }
  if (faulted && stats.faults.crashes == 0) {
    throw std::runtime_error("vacuous live-policy golden (no crash): " + run);
  }
  return live_policy_fingerprint(stats, fsys);
}

}  // namespace origami::testing
