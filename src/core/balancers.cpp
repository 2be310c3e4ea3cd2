#include "origami/core/balancers.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

namespace origami::core {

namespace {
using cost::MdsId;
using fsns::NodeId;
using sim::SimTime;
}  // namespace

bool RebalanceTrigger::should_rebalance(const cluster::EpochSnapshot& snap) {
  std::vector<double> busy;
  busy.reserve(snap.mds.size());
  std::uint64_t total_ops = 0;
  for (const auto& m : snap.mds) {
    busy.push_back(static_cast<double>(m.busy));
    total_ops += m.ops_executed;
  }
  if (total_ops == 0) return false;
  return fire(cost::imbalance_factor(busy));
}

std::vector<cluster::MigrationDecision> MetaOptOracleBalancer::rebalance(
    const cluster::EpochSnapshot& snapshot, const fsns::DirTree& tree,
    const mds::PartitionMap& map) {
  if (snapshot.upcoming.empty()) return {};
  if (on_labels_ == nullptr && !trigger_.should_rebalance(snapshot)) return {};

  MetaOpt engine(model_, params_);
  std::vector<MetaOpt::Labelled> labels;
  auto decisions = engine.optimize(snapshot.upcoming, tree, map,
                                   on_labels_ ? &labels : nullptr);
  if (on_labels_ != nullptr) {
    // Labels are defined against the window's dir stats under the current
    // partition — rebuild the view the engine labelled against.
    const auto dirs = window_dir_stats(snapshot.upcoming, tree, map, model_,
                                       params_.cache_enabled,
                                       params_.cache_depth);
    const SubtreeView view = SubtreeView::build(tree, dirs, map);
    on_labels_(tree, view, labels);
  }
  return decisions;
}

std::vector<cluster::MigrationDecision> OrigamiBalancer::rebalance(
    const cluster::EpochSnapshot& snapshot, const fsns::DirTree& tree,
    const mds::PartitionMap& map) {
  if (snapshot.dir_stats == nullptr || predictor_ == nullptr) return {};
  if (!trigger_.should_rebalance(snapshot)) return {};

  // Observed last-epoch state (the Data Collector dump).
  SubtreeView view = SubtreeView::build(tree, *snapshot.dir_stats, map);
  FeatureExtractor fx(tree, view);
  std::vector<SimTime> bins;
  bins.reserve(snapshot.mds.size());
  for (const auto& m : snapshot.mds) bins.push_back(m.rct_charged);

  mds::PartitionMap working = map;
  std::vector<cluster::MigrationDecision> decisions;
  std::uint64_t inode_budget = params_.max_inodes_per_epoch;
  const sim::SimTime t_migrate = cost_model_.params().t_migrate_per_inode;

  // Nothing below changes a feature or a subtree's RCT; migrations and
  // exclusions only ever take directories out of the pool. So the pool is
  // ranked once, each attempt's pool is that ranking filtered, and each
  // candidate is priced once per call (memoized by rank).
  const std::vector<NodeId> ranked = view.candidates(
      std::numeric_limits<std::size_t>::max(), params_.min_subtree_ops);
  std::vector<double> predicted(ranked.size());
  std::vector<bool> priced(ranked.size(), false);
  std::array<float, kFeatureCount> feat{};

  // Rejected candidates are excluded and retried with the next-best pick;
  // only *executed* migrations consume the per-epoch budget.
  int moves = 0;
  const int max_attempts = 8 * params_.max_migrations_per_epoch;
  for (int attempt = 0;
       attempt < max_attempts && moves < params_.max_migrations_per_epoch;
       ++attempt) {
    // MDS-0's balancer simply takes the highest predicted benefit (§4.2)
    // among the top `max_candidates` still in the pool. An empty pool
    // leaves no best subtree and ends the call.
    double best_pred = params_.min_predicted_benefit;
    NodeId best_subtree = fsns::kInvalidNode;
    std::size_t pool = 0;
    for (std::size_t r = 0; r < ranked.size(); ++r) {
      if (pool == params_.max_candidates) break;
      const NodeId s = ranked[r];
      if (view.uniform_owner(s) == cost::kInvalidMds) continue;
      ++pool;
      if (!priced[r]) {
        fx.extract(s, feat);
        predicted[r] = predictor_(feat);
        priced[r] = true;
      }
      if (predicted[r] > best_pred) {
        best_pred = predicted[r];
        best_subtree = s;
      }
    }
    if (best_subtree == fsns::kInvalidNode) break;

    const MdsId from = view.uniform_owner(best_subtree);
    const SimTime l = view.rct(best_subtree);
    const std::uint64_t inodes = tree.node(best_subtree).subtree_nodes;
    // One-time export cost, amortised over the expected residence time.
    const SimTime mig_eff = static_cast<SimTime>(
        static_cast<double>(t_migrate * static_cast<SimTime>(inodes)) /
        std::max(1.0, params_.migration_amortization));
    const SimTime o = subtree_overhead(view, tree, working, best_subtree,
                                       cost_model_, params_.cache_enabled,
                                       params_.cache_depth);
    // Destination: the most lightly loaded MDS that passes the Δ guard
    // *and* strictly reduces the JCT estimate (max bin) — the benefit
    // definition of §3.2. Migration must also pay for itself (amortised)
    // and fit the throttle budget.
    SimTime t_now = 0;
    for (SimTime b : bins) t_now = std::max(t_now, b);
    MdsId to = from;
    if (inodes <= inode_budget && l > 2 * mig_eff) {
      for (MdsId m = 0; m < working.mds_count(); ++m) {
        if (m == from || bins[m] >= bins[from]) continue;
        const SimTime new_from = bins[from] - l + mig_eff;
        const SimTime new_to = bins[m] + l + o + mig_eff;
        if (new_to - new_from >= params_.delta) continue;
        SimTime t_after = std::max(new_from, new_to);
        for (MdsId k = 0; k < working.mds_count(); ++k) {
          if (k != from && k != m) t_after = std::max(t_after, bins[k]);
        }
        if (t_after >= t_now) continue;  // no end-to-end benefit
        if (to == from || bins[m] < bins[to]) to = m;
      }
    }
    if (to == from) {
      // No admissible destination for the whole subtree: keep the root out
      // of this epoch's pool but leave its children migratable — they are
      // exactly the finer-grained moves Theorem 1's analysis points at.
      view.exclude(best_subtree);
      continue;
    }

    bins[from] += mig_eff - l;
    bins[to] += l + o + mig_eff;
    inode_budget -= inodes;
    working.migrate(best_subtree, from, to);
    view.apply_migration(tree, best_subtree, to);
    // Freshly placed metadata moves at most once per epoch: predictions
    // are a pure function of last-epoch features, so without this the
    // same hot subtree (or a nested part of it) would keep topping the
    // ranking and ping-pong across the cluster. It also keeps the pool
    // shrink-only, which the fixed ranking relies on: apply_migration just
    // marked the subtree's directories as owned by `to`.
    tree.visit_subtree(best_subtree, [&](NodeId id) {
      if (tree.is_dir(id)) view.exclude(id);
    });
    decisions.push_back({best_subtree, from, to, best_pred});
    ++moves;
  }
  return decisions;
}

std::vector<cluster::MigrationDecision> MlTreeBalancer::rebalance(
    const cluster::EpochSnapshot& snapshot, const fsns::DirTree& tree,
    const mds::PartitionMap& map) {
  if (snapshot.dir_stats == nullptr || model_ == nullptr) return {};
  if (!trigger_.should_rebalance(snapshot)) return {};

  // Subtree-granular popularity view (§5.1: the reproduced ML-tree uses
  // "subtrees as the basic granularity" with a popularity model).
  SubtreeView view = SubtreeView::build(tree, *snapshot.dir_stats, map);
  FeatureExtractor fx(tree, view);

  auto cands = view.candidates(params_.max_candidates, params_.min_subtree_ops);
  if (cands.empty()) return {};
  std::vector<double> popularity(cands.size());
  std::array<float, kFeatureCount> feat{};
  for (std::size_t i = 0; i < cands.size(); ++i) {
    fx.extract(cands[i], feat);
    popularity[i] = std::max(0.0, model_->predict(feat));
  }
  // Hottest *predicted* subtrees first — predictions, not measurements,
  // drive everything below; mispredicted loads translate into overshoot.
  std::vector<std::size_t> order(cands.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return popularity[a] > popularity[b];
  });

  double total = 0.0;
  std::vector<double> load(snapshot.mds.size());
  for (std::size_t m = 0; m < snapshot.mds.size(); ++m) {
    load[m] = static_cast<double>(snapshot.mds[m].ops_executed);
    total += load[m];
  }
  if (total <= 0.0) return {};
  const double mean = total / static_cast<double>(load.size());

  // Aggressive popularity-driven bin packing: move predicted-hot subtrees
  // from the hottest to the coldest MDS until the *predicted* spread looks
  // even. No Δ guard and no locality/overhead costing — the blind spots
  // §5.2 attributes to popularity-based balancing.
  std::vector<cluster::MigrationDecision> decisions;
  std::vector<bool> shadowed(tree.size(), false);
  std::uint64_t inode_budget = params_.max_inodes_per_epoch;
  for (std::size_t oi = 0;
       oi < order.size() && decisions.size() <
                                static_cast<std::size_t>(params_.max_migrations_per_epoch);
       ++oi) {
    const std::size_t i = order[oi];
    const fsns::NodeId subtree = cands[i];
    if (shadowed[subtree]) continue;
    if (tree.node(subtree).subtree_nodes > inode_budget) continue;
    const auto hot = static_cast<MdsId>(
        std::max_element(load.begin(), load.end()) - load.begin());
    const auto cold = static_cast<MdsId>(
        std::min_element(load.begin(), load.end()) - load.begin());
    if (load[hot] - load[cold] <= params_.target_spread * mean) break;
    if (view.uniform_owner(subtree) != hot) continue;

    const double moved = popularity[i] * total;  // predicted, may overshoot
    load[hot] -= moved;
    load[cold] += moved;
    inode_budget -= tree.node(subtree).subtree_nodes;
    tree.visit_subtree(subtree, [&](fsns::NodeId id) { shadowed[id] = true; });
    decisions.push_back({subtree, hot, cold, popularity[i]});
  }
  return decisions;
}

}  // namespace origami::core

// StaticBalancer lives with the other balancing policies (it is a policy,
// not part of the replay engine); its declaration stays in
// origami/cluster/balancer.hpp so replay callers see one Balancer registry.
namespace origami::cluster {

std::string StaticBalancer::name() const {
  switch (kind_) {
    case Kind::kSingle:
      return "single";
    case Kind::kCoarseHash:
      return "c-hash";
    case Kind::kFineHash:
      return "f-hash";
  }
  return "static";
}

void StaticBalancer::prepare(const fsns::DirTree& tree, mds::PartitionMap& map) {
  (void)tree;
  switch (kind_) {
    case Kind::kSingle:
      mds::partitioner::single(map);
      break;
    case Kind::kCoarseHash:
      mds::partitioner::coarse_hash(map, coarse_levels_);
      break;
    case Kind::kFineHash:
      mds::partitioner::fine_hash(map);
      break;
  }
}

}  // namespace origami::cluster
