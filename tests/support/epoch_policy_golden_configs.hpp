#pragma once

// The workloads, options and trained models behind the epoch-policy golden
// fingerprints (tests/support/epoch_policy_goldens.inc). They pin the epoch
// engine's two model-driven policies, origami and ml-tree, byte for byte,
// clean and under crash/straggler/loss faults, together with the GBDT fit
// that produced their models (label generation, early-stopped training).
// tools/goldens.cpp (family `epoch-policy`) captured the committed
// fingerprints; change anything here and they are void — regenerate with
// the tool and re-audit the diff.

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "origami/cluster/options.hpp"
#include "origami/cluster/replay.hpp"
#include "origami/core/pipeline.hpp"
#include "origami/ml/gbdt.hpp"
#include "origami/policy/registry.hpp"
#include "origami/sim/time.hpp"
#include "origami/wl/generators.hpp"

#include "fingerprints.hpp"

namespace origami::testing {

/// One spec per pinned run family, with the golden key it files under.
/// `origami-capped` binds the candidate cap on this small namespace, so the
/// truncation of the ranked pool is pinned as well as its order.
struct EpochPolicyGoldenSpec {
  const char* key;
  const char* spec;
};
inline constexpr EpochPolicyGoldenSpec kEpochPolicyGoldenSpecs[] = {
    {"origami", "origami"},
    {"origami-capped", "origami:candidates=4"},
    {"ml-tree", "ml-tree"},
};

inline wl::Trace epoch_policy_trace(std::uint64_t seed, std::uint64_t ops) {
  wl::TraceRwConfig cfg;
  cfg.ops = ops;
  cfg.projects = 5;
  cfg.modules_per_project = 4;
  cfg.sources_per_module = 8;
  cfg.headers_shared = 40;
  cfg.seed = seed;
  return wl::make_trace_rw(cfg);
}

inline cluster::ReplayOptions epoch_policy_options(std::uint64_t seed,
                                                   bool faulted) {
  cluster::ReplayOptions opt;
  opt.mds_count = 5;
  opt.clients = 8;
  opt.epoch_length = sim::millis(100);
  opt.warmup_epochs = 1;
  opt.seed = seed + 200;
  if (faulted) {
    opt.faults.seed = seed * 1000 + 13;
    opt.faults.crash_prob = 0.05;
    opt.faults.crash_recovery = sim::millis(40);
    opt.faults.straggler_prob = 0.1;
    opt.faults.rpc_loss_prob = 0.001;
    opt.retry.max_retries = 4;
    opt.retry.timeout = sim::millis(2);
    opt.recovery.fencing = true;
  }
  return opt;
}

/// The benefit and popularity models every golden run shares: Meta-OPT
/// labels on a differently seeded Trace-RW, then the offline fit with
/// early stopping on a held-out split. Trained once per process.
inline const core::TrainedModels& epoch_policy_models() {
  static const core::TrainedModels models = [] {
    core::LabelGenOptions lg;
    lg.replay = epoch_policy_options(/*seed=*/0, /*faulted=*/false);
    lg.meta_opt.min_subtree_ops = 8;
    lg.meta_opt.stop_threshold = sim::micros(500);
    lg.meta_opt.cache_enabled = lg.replay.cache_enabled;
    lg.meta_opt.cache_depth = lg.replay.cache_depth;
    lg.min_feature_ops = 4;
    ml::GbdtParams gbdt;
    gbdt.rounds = 400;
    gbdt.learning_rate = 0.5;
    gbdt.early_stopping_rounds = 10;
    return core::train_models(
        core::generate_labels(epoch_policy_trace(99, 12'000), lg), gbdt);
  }();
  return models;
}

/// FNV-1a over a model's `save()` text: pins every tree, split and leaf.
inline std::string model_fingerprint(const ml::GbdtModel& model) {
  std::ostringstream text;
  model.save(text);
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text.str()) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return std::to_string(model.num_trees()) + " trees " + std::to_string(h) +
         "\n";
}

/// Replays one config under `spec` and returns its fingerprint. Throws when
/// the run could not pin anything: a golden run must migrate, and a
/// faulted one must crash.
inline std::string epoch_policy_run(const std::string& spec,
                                    std::uint64_t seed, bool faulted) {
  const cluster::ReplayOptions opt = epoch_policy_options(seed, faulted);
  policy::PolicyContext ctx;
  ctx.options = &opt;
  ctx.benefit_model = epoch_policy_models().benefit;
  ctx.popularity_model = epoch_policy_models().popularity;
  auto made = policy::Registry::builtin().make(spec, ctx);
  if (!made.is_ok()) throw std::runtime_error(made.status().to_string());
  const cluster::RunResult r = cluster::replay_trace(
      epoch_policy_trace(seed, 20'000), opt, *made.value());
  const std::string run = spec + " seed " + std::to_string(seed) +
                          (faulted ? " faulted" : " clean");
  if (r.migrations == 0) {
    throw std::runtime_error("vacuous epoch-policy golden (no migration): " +
                             run);
  }
  if (faulted && r.faults.crashes == 0) {
    throw std::runtime_error("vacuous epoch-policy golden (no crash): " +
                             run);
  }
  return run_result_fingerprint(r);
}

}  // namespace origami::testing
