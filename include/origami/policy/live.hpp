#pragma once

// The live forms of the registered policies: `LivePolicy` implementations
// that rebalance the live OrigamiFS service instead of the simulator. They
// share one skeleton, after Mantle's split between policy and host: each
// epoch drains the Data Collector once and rolls its per-directory
// counters up into subtrees (the metrics table), the policy names
// (subtree, destination) targets from that table, and the host runs each
// move through one two-phase protocol narrated into the engine's
// `fs::LiveFaultContext`. Only the trigger, the candidate order and the
// destination and overshoot guards differ between policies. All forms are
// deterministic (index-ordered scans, stable sorts, no RNG).

#include <cstdint>
#include <memory>

#include "origami/core/balancers.hpp"
#include "origami/ml/gbdt.hpp"
#include "origami/policy/registry.hpp"

namespace origami::policy {

/// Budget and candidate floor of the subtree-moving live forms.
struct LiveParams {
  /// Committed moves per epoch.
  int max_moves_per_epoch = 8;
  /// Subtrees with fewer ops this epoch are never candidates.
  std::uint64_t min_subtree_ops = 16;
};

/// Never migrates: the live form of "single", whose namespace starts on
/// shard 0, exactly the 1-shard baseline.
std::unique_ptr<LivePolicy> make_live_null();

/// Origami's §4.2 loop: the benefit model scores every uniform subtree's
/// Table-1 features, and subtrees predicted above `min_predicted_benefit`
/// move, highest first, to the least-loaded healthy shard. An epoch whose
/// raw per-shard op imbalance is below `trigger` is skipped (no smoothing);
/// without a model the Data Collector is never even drained.
std::unique_ptr<LivePolicy> make_live_origami(
    std::shared_ptr<const ml::GbdtModel> model, LiveParams params,
    double min_predicted_benefit, double trigger);

/// Greedy spill: a healthy shard above the mean load sheds its hottest
/// uniform subtrees to the least-loaded healthy shard.
std::unique_ptr<LivePolicy> make_live_greedy_spill(
    LiveParams params, core::RebalanceTrigger trigger);

/// Hash repartition: re-homes drifted leaf directories (no child dirs, so
/// the subtree move is the directory itself) onto their hash owner,
/// hottest first.
std::unique_ptr<LivePolicy> make_live_hash_repart(
    int max_moves_per_epoch, core::RebalanceTrigger trigger);

/// Load fractions: every healthy shard above the mean exports uniform
/// subtrees worth its excess load, each to the least-loaded healthy shard.
std::unique_ptr<LivePolicy> make_live_load_fraction(
    LiveParams params, core::RebalanceTrigger trigger);

}  // namespace origami::policy
