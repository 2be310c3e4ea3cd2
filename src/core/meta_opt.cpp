#include "origami/core/meta_opt.hpp"

#include <algorithm>

#include "origami/common/small_set.hpp"
#include "origami/common/thread_pool.hpp"

namespace origami::core {

namespace {

using cost::MdsId;
using fsns::NodeId;
using fsns::OpClass;
using fsns::OpType;
using sim::SimTime;

/// Analytic per-op accounting mirroring the replay engine's planner, with
/// the client cache idealised as always-warm (the steady state Meta-OPT
/// optimises for).
struct OpCost {
  MdsId exec_owner = 0;
  NodeId home = fsns::kRootNode;
  cost::RctBreakdown rct;
  std::uint32_t lsdir_spread = 0;
  bool ns_cross = false;
};

/// `chain` is the caller's reused buffer for the ancestor chain.
OpCost analyze(const wl::MetaOp& op, const fsns::DirTree& tree,
               const mds::PartitionMap& partition,
               const cost::CostModel& model, bool cache_enabled,
               std::uint32_t cache_depth, std::vector<NodeId>& chain) {
  OpCost out;
  out.exec_owner = partition.node_owner(op.target);
  out.home = tree.is_dir(op.target) ? op.target : tree.parent(op.target);

  // Distinct partitions across the (uncached) resolution chain + exec.
  // Small-set tracking degrades gracefully: very wide directories on large
  // clusters spill past the inline capacity instead of being truncated
  // (which used to undercount lsdir_spread and forwarding hops).
  common::SmallSet<MdsId, 16> seen;

  tree.ancestors(op.target, chain);
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    const NodeId comp = chain[i];
    if (cache_enabled && tree.depth(comp) < cache_depth) continue;
    seen.insert(partition.dir_owner(comp));
  }
  seen.insert(out.exec_owner);

  if (op.type == OpType::kReaddir && tree.is_dir(op.target)) {
    common::SmallSet<MdsId, 16> owners;
    for (NodeId child : tree.node(op.target).children) {
      if (!tree.is_dir(child)) continue;
      const MdsId o = partition.dir_owner(child);
      if (o == out.exec_owner) continue;
      if (owners.insert(o)) seen.insert(o);
    }
    out.lsdir_spread = static_cast<std::uint32_t>(owners.size());
  }

  if (fsns::classify(op.type) == OpClass::kNsMutation) {
    MdsId other = out.exec_owner;
    if ((op.type == OpType::kMkdir || op.type == OpType::kRmdir) &&
        tree.is_dir(op.target) && op.target != fsns::kRootNode) {
      other = partition.dir_owner(tree.parent(op.target));
    } else if (op.type == OpType::kRename && op.aux != fsns::kInvalidNode) {
      other = partition.dir_owner(op.aux);
    } else if ((op.type == OpType::kCreate || op.type == OpType::kUnlink) &&
               !tree.is_dir(op.target)) {
      other = partition.dir_owner(tree.parent(op.target));
    }
    if (other != out.exec_owner) {
      out.ns_cross = true;
      seen.insert(other);
    }
  }

  out.rct = model.rct(op.type, tree.depth(op.target),
                      static_cast<std::uint32_t>(seen.size()), out.lsdir_spread,
                      out.ns_cross);
  return out;
}

struct WindowAnalysis {
  cost::JctAccumulator bins;
  std::vector<cluster::DirEpochStats> dirs;
};

/// Serial accumulation of `window[begin, end)` into `wa` — the per-shard
/// kernel of the parallel decomposition below.
void accumulate_window(std::span<const wl::MetaOp> window, std::size_t begin,
                       std::size_t end, const fsns::DirTree& tree,
                       const mds::PartitionMap& partition,
                       const cost::CostModel& model, bool cache_enabled,
                       std::uint32_t cache_depth, WindowAnalysis& wa) {
  std::vector<NodeId> chain;
  for (std::size_t i = begin; i < end; ++i) {
    const wl::MetaOp& op = window[i];
    const OpCost oc = analyze(op, tree, partition, model, cache_enabled,
                              cache_depth, chain);
    wa.bins.charge(oc.exec_owner, oc.rct.total());
    cluster::DirEpochStats& home = wa.dirs[oc.home];
    if (fsns::is_write(op.type)) {
      ++home.writes;
    } else {
      ++home.reads;
    }
    home.rct += oc.rct.total();
    if (op.type == OpType::kReaddir) ++wa.dirs[op.target].lsdir;
    if (fsns::classify(op.type) == OpClass::kNsMutation &&
        tree.is_dir(op.target)) {
      ++wa.dirs[op.target].nsm_self;
    }
  }
}

/// Ops per shard below which the parallel split is not worth the buffer
/// allocations (each shard carries a tree-sized DirEpochStats vector).
constexpr std::size_t kWindowGrain = 4096;

WindowAnalysis analyze_window(std::span<const wl::MetaOp> window,
                              const fsns::DirTree& tree,
                              const mds::PartitionMap& partition,
                              const cost::CostModel& model, bool cache_enabled,
                              std::uint32_t cache_depth) {
  WindowAnalysis wa{cost::JctAccumulator(partition.mds_count()),
                    std::vector<cluster::DirEpochStats>(tree.size())};
  common::ThreadPool& pool = common::analysis_pool();
  const std::size_t chunks =
      common::chunk_count(window.size(), kWindowGrain);
  if (pool.size() <= 1 || chunks <= 1) {
    accumulate_window(window, 0, window.size(), tree, partition, model,
                      cache_enabled, cache_depth, wa);
    return wa;
  }

  // Per-op accounting is a pure function of the (immutable) tree/partition,
  // so shards are independent; every counter is an integer sum, which makes
  // the chunk-order merge bit-identical to the serial loop at any thread
  // count (chunk boundaries depend only on the window size, not the pool).
  std::vector<WindowAnalysis> parts(
      chunks, WindowAnalysis{cost::JctAccumulator(partition.mds_count()),
                             std::vector<cluster::DirEpochStats>(tree.size())});
  common::parallel_for_chunks(
      pool, window.size(), kWindowGrain,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        accumulate_window(window, begin, end, tree, partition, model,
                          cache_enabled, cache_depth, parts[chunk]);
      });
  for (const WindowAnalysis& part : parts) {
    wa.bins.merge(part.bins);
    for (std::size_t d = 0; d < wa.dirs.size(); ++d) {
      cluster::DirEpochStats& into = wa.dirs[d];
      const cluster::DirEpochStats& from = part.dirs[d];
      into.reads += from.reads;
      into.writes += from.writes;
      into.lsdir += from.lsdir;
      into.nsm_self += from.nsm_self;
      into.rct += from.rct;
    }
  }
  return wa;
}

}  // namespace

cost::JctAccumulator evaluate_window(std::span<const wl::MetaOp> window,
                                     const fsns::DirTree& tree,
                                     const mds::PartitionMap& partition,
                                     const cost::CostModel& model,
                                     bool cache_enabled,
                                     std::uint32_t cache_depth,
                                     std::vector<sim::SimTime>* dir_rct) {
  auto wa = analyze_window(window, tree, partition, model, cache_enabled,
                           cache_depth);
  if (dir_rct != nullptr) {
    dir_rct->assign(tree.size(), 0);
    for (std::size_t i = 0; i < wa.dirs.size(); ++i) {
      (*dir_rct)[i] = wa.dirs[i].rct;
    }
  }
  return std::move(wa.bins);
}

std::vector<cluster::DirEpochStats> window_dir_stats(
    std::span<const wl::MetaOp> window, const fsns::DirTree& tree,
    const mds::PartitionMap& partition, const cost::CostModel& model,
    bool cache_enabled, std::uint32_t cache_depth) {
  return analyze_window(window, tree, partition, model, cache_enabled,
                        cache_depth)
      .dirs;
}

sim::SimTime subtree_overhead(const SubtreeView& view,
                              const fsns::DirTree& tree,
                              const mds::PartitionMap& partition,
                              fsns::NodeId subtree,
                              const cost::CostModel& model, bool cache_enabled,
                              std::uint32_t cache_depth) {
  if (subtree == fsns::kRootNode) return 0;
  const auto& p = model.params();
  const NodeId parent = tree.parent(subtree);
  const MdsId owner = partition.dir_owner(subtree);
  const MdsId parent_owner = partition.dir_owner(parent);

  SimTime o = 0;
  // A new resolution boundary appears only if the parent currently shares
  // the owner, and only costs anything when the client cache does not
  // already absorb the components above the subtree root (§5.4: most
  // Origami migrations happen inside the cached near-root region, making
  // migration overhead negligible).
  const bool boundary_new = parent_owner == owner;
  const bool boundary_visible =
      !cache_enabled || tree.depth(subtree) > cache_depth;
  if (boundary_new && boundary_visible) {
    o += static_cast<SimTime>(view.ops(subtree)) *
         (p.t_inode + p.t_rpc_handle + p.rtt);
  }
  if (boundary_new) {
    // Mutations targeting the subtree root now span two MDSs …
    o += p.t_coor * view.nsm_self(subtree);
    // … and the parent's listings fan out to one more MDS.
    o += (p.rtt + p.t_exec_readdir / 2) * view.lsdir_self(parent);
  }
  return o;
}

std::vector<cluster::MigrationDecision> MetaOpt::optimize(
    std::span<const wl::MetaOp> window, const fsns::DirTree& tree,
    const mds::PartitionMap& partition, std::vector<Labelled>* labels) const {
  std::vector<cluster::MigrationDecision> decisions;
  if (window.empty() || partition.mds_count() < 2) return decisions;

  auto wa = analyze_window(window, tree, partition, model_,
                           params_.cache_enabled, params_.cache_depth);
  std::vector<SimTime> bins(wa.bins.per_mds());

  mds::PartitionMap working = partition;
  SubtreeView view = SubtreeView::build(tree, wa.dirs, working);
  std::uint64_t inode_budget = params_.max_inodes_per_round;

  for (int round = 0; round < params_.max_decisions; ++round) {
    const SimTime t_now = *std::max_element(bins.begin(), bins.end());

    SimTime best_benefit = 0;
    cluster::MigrationDecision best;
    sim::SimTime best_l = 0;
    sim::SimTime best_o = 0;

    const auto cands =
        view.candidates(params_.max_candidates, params_.min_subtree_ops);

    // Each candidate's score is a pure function of the round-frozen state
    // (bins/view/working are const until the reduction below picks a
    // winner), so the scoring loop parallelizes embarrassingly. Scores land
    // in per-candidate slots; the arg-min reduction then runs serially in
    // candidate order, which keeps the tie-break ("first strictly better
    // candidate wins", i.e. lowest candidate index) independent of thread
    // scheduling.
    struct CandScore {
      bool viable = false;
      MdsId a = cost::kInvalidMds;
      MdsId dst = cost::kInvalidMds;
      SimTime best = 0;   // guarded best, drives decisions
      SimTime label = 0;  // unguarded best, training label
      SimTime l = 0;
      SimTime o = 0;
    };
    std::vector<CandScore> scores(cands.size());
    common::parallel_for(
        common::analysis_pool(), cands.size(),
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            const NodeId s = cands[i];
            const MdsId a = view.uniform_owner(s);
            const SimTime l = view.rct(s);
            if (l <= 0) continue;
            const std::uint64_t inodes = tree.node(s).subtree_nodes;
            if (inodes > inode_budget) continue;
            SimTime o =
                subtree_overhead(view, tree, working, s, model_,
                                 params_.cache_enabled, params_.cache_depth);
            SimTime mig = 0;
            if (params_.charge_migration_cost) {
              mig = static_cast<SimTime>(
                  static_cast<double>(model_.params().t_migrate_per_inode *
                                      static_cast<SimTime>(inodes)) /
                  std::max(1.0, params_.migration_amortization));
              o += mig;  // destination pays the import alongside the new load
            }
            const SimTime new_a = bins[a] - l + mig;  // source pays the export

            SimTime subtree_best = 0;
            SimTime subtree_best_label = 0;
            MdsId subtree_dst = a;
            for (MdsId b = 0; b < working.mds_count(); ++b) {
              if (b == a) continue;
              const SimTime new_b = bins[b] + l + o;
              // New maximum if the move were applied.
              SimTime t_after = std::max(new_a, new_b);
              for (MdsId m = 0; m < working.mds_count(); ++m) {
                if (m != a && m != b) t_after = std::max(t_after, bins[m]);
              }
              const SimTime benefit = t_now - t_after;
              subtree_best_label = std::max(subtree_best_label, benefit);
              if (new_b - new_a >= params_.delta) continue;  // Alg.1 line 9
              if (benefit > subtree_best) {
                subtree_best = benefit;
                subtree_dst = b;
              }
            }
            scores[i] = {true, a, subtree_dst, subtree_best,
                         subtree_best_label, l, o};
          }
        },
        /*min_chunk=*/64);

    for (std::size_t i = 0; i < cands.size(); ++i) {
      const CandScore& sc = scores[i];
      if (!sc.viable) continue;
      if (labels != nullptr && round == 0) {
        labels->push_back({cands[i], sc.a, sc.dst, sc.label, sc.l, sc.o});
      }
      if (sc.best > best_benefit) {
        best_benefit = sc.best;
        best = {cands[i], sc.a, sc.dst, sim::to_seconds(sc.best)};
        best_l = sc.l;
        best_o = sc.o;
      }
    }

    if (best_benefit < params_.stop_threshold) break;

    // best_o already includes the import-side migration charge; the source
    // keeps the export charge folded into its bin via best_l's adjustment
    // performed during evaluation — reapply both sides here.
    SimTime mig = 0;
    if (params_.charge_migration_cost) {
      mig = static_cast<SimTime>(
          static_cast<double>(
              model_.params().t_migrate_per_inode *
              static_cast<SimTime>(tree.node(best.subtree).subtree_nodes)) /
          std::max(1.0, params_.migration_amortization));
    }
    bins[best.from] += mig - best_l;
    bins[best.to] += best_l + best_o;
    const std::uint64_t moved = tree.node(best.subtree).subtree_nodes;
    inode_budget = moved >= inode_budget ? 0 : inode_budget - moved;
    working.migrate(best.subtree, best.from, best.to);
    view.apply_migration(tree, best.subtree, best.to);
    decisions.push_back(best);
    if (inode_budget == 0) break;
  }
  return decisions;
}

}  // namespace origami::core
