#include "origami/policy/baselines.hpp"

#include <algorithm>

#include "origami/common/hash.hpp"
#include "origami/core/subtree.hpp"
#include "origami/cost/cost_model.hpp"

namespace origami::policy {

namespace {

using cost::MdsId;
using fsns::NodeId;

/// The per-MDS "cpu" load vector (busy service time) every baseline keys
/// its decisions on, as doubles for imbalance math.
std::vector<double> busy_load(const cluster::EpochSnapshot& snap) {
  std::vector<double> load;
  load.reserve(snap.mds.size());
  for (const auto& m : snap.mds) load.push_back(static_cast<double>(m.busy));
  return load;
}

MdsId argmax(const std::vector<double>& v) {
  return static_cast<MdsId>(std::max_element(v.begin(), v.end()) - v.begin());
}

MdsId argmin_excluding(const std::vector<double>& v, MdsId skip) {
  MdsId best = cost::kInvalidMds;
  for (MdsId m = 0; m < static_cast<MdsId>(v.size()); ++m) {
    if (m == skip) continue;
    if (best == cost::kInvalidMds || v[m] < v[best]) best = m;
  }
  return best;
}

/// The fine-hash owner of a directory (same mix as partitioner::fine_hash,
/// so hash-repart converges onto exactly the f-hash placement).
MdsId hash_owner(NodeId d, std::size_t mds_count) {
  return static_cast<MdsId>(common::mix64(d + 0x9e3779b9) % mds_count);
}

}  // namespace

std::vector<cluster::MigrationDecision> GreedySpillBalancer::rebalance(
    const cluster::EpochSnapshot& snapshot, const fsns::DirTree& tree,
    const mds::PartitionMap& map) {
  if (snapshot.dir_stats == nullptr) return {};
  if (!trigger_.should_rebalance(snapshot)) return {};

  core::SubtreeView view =
      core::SubtreeView::build(tree, *snapshot.dir_stats, map);
  const auto cands =
      view.candidates(params_.max_candidates, params_.min_subtree_ops);
  if (cands.empty()) return {};

  std::vector<double> load = busy_load(snapshot);
  double total = 0.0;
  for (double l : load) total += l;
  const double mean = total / static_cast<double>(load.size());

  std::vector<cluster::MigrationDecision> decisions;
  std::uint64_t inode_budget = params_.max_inodes_per_epoch;
  // Candidates arrive hottest-first (ranked by subtree RCT); spill each one
  // owned by the *currently* hottest MDS onto the coldest, re-evaluating
  // loads after every move.
  for (const NodeId subtree : cands) {
    if (decisions.size() >=
        static_cast<std::size_t>(params_.max_migrations_per_epoch)) {
      break;
    }
    const MdsId hot = argmax(load);
    if (load[hot] <= mean) break;  // source at or below mean: balanced
    if (view.uniform_owner(subtree) != hot) continue;
    if (tree.node(subtree).subtree_nodes > inode_budget) continue;
    const MdsId cold = argmin_excluding(load, hot);
    if (cold == cost::kInvalidMds) break;
    const auto moved = static_cast<double>(view.rct(subtree));
    if (moved <= 0.0) continue;
    if (load[cold] + moved > load[hot] - moved) continue;  // would overshoot
    load[hot] -= moved;
    load[cold] += moved;
    inode_budget -= tree.node(subtree).subtree_nodes;
    tree.visit_subtree(subtree, [&](NodeId id) {
      if (tree.is_dir(id)) view.exclude(id);
    });
    decisions.push_back({subtree, hot, cold, moved / 1e9});
  }
  return decisions;
}

void HashRepartitionBalancer::prepare(const fsns::DirTree& tree,
                                      mds::PartitionMap& map) {
  (void)tree;
  mds::partitioner::coarse_hash(map, params_.coarse_levels);
}

std::vector<cluster::MigrationDecision> HashRepartitionBalancer::rebalance(
    const cluster::EpochSnapshot& snapshot, const fsns::DirTree& tree,
    const mds::PartitionMap& map) {
  if (snapshot.dir_stats == nullptr) return {};
  if (!trigger_.should_rebalance(snapshot)) return {};

  const auto& stats = *snapshot.dir_stats;
  // Directories whose current owner drifted from the fine-hash owner,
  // hottest (by own-epoch RCT) first; NodeId breaks ties so the order is
  // fully deterministic.
  std::vector<std::pair<double, NodeId>> drifted;
  for (const NodeId d : tree.directories()) {
    const MdsId want = hash_owner(d, map.mds_count());
    if (map.dir_owner(d) == want) continue;
    drifted.emplace_back(-static_cast<double>(stats[d].rct), d);
  }
  std::sort(drifted.begin(), drifted.end());

  std::vector<cluster::MigrationDecision> decisions;
  for (const auto& [neg_heat, d] : drifted) {
    (void)neg_heat;
    if (decisions.size() >=
        static_cast<std::size_t>(params_.max_moves_per_epoch)) {
      break;
    }
    cluster::MigrationDecision dec;
    dec.subtree = d;
    dec.from = map.dir_owner(d);
    dec.to = hash_owner(d, map.mds_count());
    dec.whole_subtree = false;  // directory-granular re-hash
    decisions.push_back(dec);
  }
  return decisions;
}

std::vector<cluster::MigrationDecision> LoadFractionBalancer::rebalance(
    const cluster::EpochSnapshot& snapshot, const fsns::DirTree& tree,
    const mds::PartitionMap& map) {
  if (snapshot.dir_stats == nullptr) return {};
  if (!trigger_.should_rebalance(snapshot)) return {};

  core::SubtreeView view =
      core::SubtreeView::build(tree, *snapshot.dir_stats, map);
  const auto cands =
      view.candidates(params_.max_candidates, params_.min_subtree_ops);
  if (cands.empty()) return {};

  std::vector<double> load = busy_load(snapshot);
  double total = 0.0;
  for (double l : load) total += l;
  const double mean = total / static_cast<double>(load.size());

  // Exporters ranked by excess over the mean (descending; MdsId ties).
  std::vector<MdsId> exporters;
  for (MdsId m = 0; m < static_cast<MdsId>(load.size()); ++m) {
    if (load[m] > mean) exporters.push_back(m);
  }
  std::stable_sort(exporters.begin(), exporters.end(),
                   [&](MdsId a, MdsId b) { return load[a] > load[b]; });

  std::vector<cluster::MigrationDecision> decisions;
  std::uint64_t inode_budget = params_.max_inodes_per_epoch;
  for (const MdsId exporter : exporters) {
    const double excess = load[exporter] - mean;
    if (excess <= 0.0) continue;
    double shed = 0.0;
    for (const NodeId subtree : cands) {
      if (decisions.size() >=
          static_cast<std::size_t>(params_.max_migrations_per_epoch)) {
        return decisions;
      }
      if (shed >= excess) break;  // this exporter's fraction is met
      if (view.uniform_owner(subtree) != exporter) continue;
      if (tree.node(subtree).subtree_nodes > inode_budget) continue;
      const auto l = static_cast<double>(view.rct(subtree));
      if (l <= 0.0) continue;
      // A slice far beyond the remaining excess would overshoot the mean;
      // skip it and keep walking colder candidates.
      if (l > (excess - shed) * 1.5) continue;
      const MdsId importer = argmin_excluding(load, exporter);
      if (importer == cost::kInvalidMds) return decisions;
      if (load[importer] + l > load[exporter] - l) continue;
      load[exporter] -= l;
      load[importer] += l;
      shed += l;
      inode_budget -= tree.node(subtree).subtree_nodes;
      tree.visit_subtree(subtree, [&](NodeId id) {
        if (tree.is_dir(id)) view.exclude(id);
      });
      decisions.push_back({subtree, exporter, importer, l / 1e9});
    }
  }
  return decisions;
}

}  // namespace origami::policy
