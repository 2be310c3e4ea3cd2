#pragma once

// Three registered baseline policies beyond the paper's strategy set, in
// their simulator form (`cluster::Balancer`); their live forms are in
// origami/policy/live.hpp. All three are deterministic (index-ordered
// scans, stable sorts, no RNG).

#include <cstdint>
#include <vector>

#include "origami/cluster/balancer.hpp"
#include "origami/core/balancers.hpp"

namespace origami::policy {

/// Budgets of the two load-shedding baselines (greedy-spill, load-frac).
struct SheddingParams {
  int max_migrations_per_epoch = 24;
  std::size_t max_candidates = 1024;
  std::uint64_t min_subtree_ops = 16;
  std::uint64_t max_inodes_per_epoch = 100'000;
};

/// Classic greedy spill: when the busy-time imbalance trigger fires, shed
/// the hottest MDS's hottest subtrees onto the least-loaded MDS until the
/// source projects at or below the mean (or the budget runs out). The
/// textbook work-stealing baseline — measured load only, no predictions,
/// no locality costing.
class GreedySpillBalancer final : public cluster::Balancer {
 public:
  GreedySpillBalancer(SheddingParams params, core::RebalanceTrigger trigger)
      : params_(params), trigger_(trigger) {}

  [[nodiscard]] std::string name() const override { return "greedy-spill"; }
  std::vector<cluster::MigrationDecision> rebalance(
      const cluster::EpochSnapshot& snapshot, const fsns::DirTree& tree,
      const mds::PartitionMap& map) override;

 private:
  SheddingParams params_;
  core::RebalanceTrigger trigger_;
};

/// Periodic hash repartitioning: starts from the coarse-hash placement and,
/// whenever the trigger fires, migrates the hottest directories whose
/// current owner has drifted from their fine-hash owner back to hash
/// ownership (directory-granular moves, no subtree locality). Models the
/// "just rehash it" school of metadata distribution.
class HashRepartitionBalancer final : public cluster::Balancer {
 public:
  struct Params {
    /// Directories re-hashed per firing epoch.
    int max_moves_per_epoch = 64;
    /// Coarse-hash depth of the initial placement.
    std::uint32_t coarse_levels = 2;
  };

  HashRepartitionBalancer(Params params, core::RebalanceTrigger trigger)
      : params_(params), trigger_(trigger) {}

  [[nodiscard]] std::string name() const override { return "hash-repart"; }
  void prepare(const fsns::DirTree& tree, mds::PartitionMap& map) override;
  std::vector<cluster::MigrationDecision> rebalance(
      const cluster::EpochSnapshot& snapshot, const fsns::DirTree& tree,
      const mds::PartitionMap& map) override;

 private:
  Params params_;
  core::RebalanceTrigger trigger_;
};

/// CephFS-MDBalancer-style load fractions: every MDS above the mean busy
/// load exports a slice of subtrees whose combined measured load matches
/// its excess fraction, each slice landing on the currently least-loaded
/// importer. Proportional shedding instead of greedy-hottest-first.
class LoadFractionBalancer final : public cluster::Balancer {
 public:
  LoadFractionBalancer(SheddingParams params, core::RebalanceTrigger trigger)
      : params_(params), trigger_(trigger) {}

  [[nodiscard]] std::string name() const override { return "load-frac"; }
  std::vector<cluster::MigrationDecision> rebalance(
      const cluster::EpochSnapshot& snapshot, const fsns::DirTree& tree,
      const mds::PartitionMap& map) override;

 private:
  SheddingParams params_;
  core::RebalanceTrigger trigger_;
};

}  // namespace origami::policy
