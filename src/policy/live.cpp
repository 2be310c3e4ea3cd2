#include "origami/policy/live.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <unordered_map>
#include <utility>
#include <vector>

#include "origami/common/hash.hpp"
#include "origami/core/features.hpp"
#include "origami/cost/cost_model.hpp"

namespace origami::policy {

namespace {

constexpr std::uint32_t kNoShard = UINT32_MAX;

/// One directory of an epoch's metrics table. The Data Collector reports
/// per-directory counters; the rollup adds every descendant's into the
/// subtree totals.
struct LiveNode {
  fs::Ino ino = fs::kInvalidIno;
  fs::Ino parent = fs::kInvalidIno;
  std::uint32_t depth = 0;
  std::uint32_t shard = 0;
  bool uniform = true;           ///< the whole subtree sits on `shard`
  std::uint64_t child_dirs = 0;  ///< the directory's own child directories
  std::uint64_t self_ops = 0;    ///< the directory's own reads + writes
  // Subtree totals, the directory included.
  std::uint64_t sub_files = 0;
  std::uint64_t sub_dirs = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;

  [[nodiscard]] std::uint64_t ops() const { return reads + writes; }
};

/// The skeleton every live form runs on, one per epoch. Construction
/// drains the Data Collector and rolls it up into `nodes` and `load`; the
/// policy reads them and names targets, which `two_phase_move` and
/// `export_subtree` carry out.
class LiveEpoch {
 public:
  LiveEpoch(fs::OrigamiFs& fsys, fs::LiveFaultContext& ctx);

  /// The baselines' trigger: never on an idle epoch, otherwise the
  /// smoothed per-shard op imbalance.
  bool fires(core::RebalanceTrigger& trigger) const {
    return total_ops != 0 && trigger.fire(cost::imbalance_factor(load));
  }
  [[nodiscard]] bool down(std::uint32_t shard) const {
    return ctx_.shard_down(shard);
  }
  [[nodiscard]] double mean_load() const {
    double total = 0.0;
    for (double l : load) total += l;
    return total / static_cast<double>(load.size());
  }
  /// The least-loaded healthy shard other than `from` (lowest id on ties),
  /// or kNoShard when every other shard is down.
  [[nodiscard]] std::uint32_t least_loaded_except(std::uint32_t from) const;
  /// Indices, in rollup order, of the subtrees a policy may move whole:
  /// uniformly owned, not the root, and with at least `min_ops` ops.
  [[nodiscard]] std::vector<std::size_t> movable_nodes(
      std::uint64_t min_ops) const;
  /// Sorts node indices hottest first by `heat(node)`; ino breaks ties.
  template <typename Heat>
  void hottest_first(std::vector<std::size_t>& idx, Heat heat) const {
    std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      const std::uint64_t ha = heat(nodes[a]);
      const std::uint64_t hb = heat(nodes[b]);
      if (ha != hb) return ha > hb;
      return nodes[a].ino < nodes[b].ino;
    });
  }
  [[nodiscard]] bool frozen(std::size_t i) const { return frozen_[i]; }

  /// Moves node `i`'s subtree off its shard to `to`: PREPARE, copy, then
  /// COMMIT — or ABORT when the copy never started, and ABORT with a
  /// rollback to the source when the destination died mid-copy, so no
  /// entry is ever homed on a dead shard. Counts and returns commits.
  bool two_phase_move(std::size_t i, std::uint32_t to);
  /// `two_phase_move`; on commit also shifts the subtree's ops onto `to`
  /// and freezes every node inside it for the rest of the epoch.
  bool export_subtree(std::size_t i, std::uint32_t to);

  std::vector<LiveNode> nodes;
  std::vector<double> load;     ///< per-shard ops this epoch
  std::uint64_t total_ops = 0;  ///< all ops this epoch
  std::uint64_t moves = 0;      ///< committed moves this epoch

 private:
  fs::OrigamiFs& fsys_;
  fs::LiveFaultContext& ctx_;
  std::unordered_map<fs::Ino, std::size_t> index_;
  std::vector<bool> frozen_;
};

LiveEpoch::LiveEpoch(fs::OrigamiFs& fsys, fs::LiveFaultContext& ctx)
    : fsys_(fsys), ctx_(ctx) {
  const auto activity = fsys.collect_activity(/*reset=*/true);
  load.assign(fsys.shard_count(), 0.0);
  nodes.resize(activity.size());
  index_.reserve(activity.size());
  for (std::size_t i = 0; i < activity.size(); ++i) {
    const auto& a = activity[i];
    const std::uint64_t ops = a.reads + a.writes;
    nodes[i] = {.ino = a.ino,
                .parent = a.parent,
                .depth = a.depth,
                .shard = a.shard,
                .child_dirs = a.sub_dirs,
                .self_ops = ops,
                .sub_files = a.sub_files,
                .sub_dirs = a.sub_dirs,
                .reads = a.reads,
                .writes = a.writes};
    load[a.shard] += static_cast<double>(ops);
    total_ops += ops;
    index_.emplace(a.ino, i);
  }
  // Deepest-first parent propagation turns per-dir counters into subtree
  // totals and labels ownership uniformity.
  std::vector<std::size_t> order(nodes.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return nodes[a].depth > nodes[b].depth;
                   });
  for (const std::size_t i : order) {
    const auto pit = index_.find(nodes[i].parent);
    if (pit == index_.end()) continue;
    const LiveNode& c = nodes[i];
    LiveNode& p = nodes[pit->second];
    p.sub_files += c.sub_files;
    p.sub_dirs += c.sub_dirs;
    p.reads += c.reads;
    p.writes += c.writes;
    if (!c.uniform || c.shard != p.shard) p.uniform = false;
  }
  frozen_.assign(nodes.size(), false);
}

std::uint32_t LiveEpoch::least_loaded_except(std::uint32_t from) const {
  std::uint32_t best = kNoShard;
  for (std::uint32_t s = 0; s < load.size(); ++s) {
    if (s == from || down(s)) continue;
    if (best == kNoShard || load[s] < load[best]) best = s;
  }
  return best;
}

std::vector<std::size_t> LiveEpoch::movable_nodes(
    std::uint64_t min_ops) const {
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const LiveNode& n = nodes[i];
    if (n.uniform && n.ino != fs::kRootIno && n.ops() >= min_ops) {
      idx.push_back(i);
    }
  }
  return idx;
}

bool LiveEpoch::two_phase_move(std::size_t i, std::uint32_t to) {
  const fs::Ino subtree = nodes[i].ino;
  const std::uint32_t from = nodes[i].shard;
  ctx_.record_prepare(subtree, from, to);
  if (!fsys_.migrate_subtree_ino(subtree, to).is_ok()) {
    ctx_.record_abort(subtree, from, to);
    return false;
  }
  if (ctx_.shard_down(to)) {
    (void)fsys_.migrate_subtree_ino(subtree, from);
    ctx_.record_abort(subtree, from, to);
    return false;
  }
  ctx_.record_commit(subtree, from, to);
  ++moves;
  return true;
}

bool LiveEpoch::export_subtree(std::size_t i, std::uint32_t to) {
  if (!two_phase_move(i, to)) return false;
  const auto l = static_cast<double>(nodes[i].ops());
  load[nodes[i].shard] -= l;
  load[to] += l;
  // Freeze every node whose ancestor chain reaches the moved root.
  const fs::Ino root = nodes[i].ino;
  for (std::size_t j = 0; j < nodes.size(); ++j) {
    for (fs::Ino cur = nodes[j].ino; cur != fs::kInvalidIno;) {
      if (cur == root) {
        frozen_[j] = true;
        break;
      }
      const auto it = index_.find(cur);
      if (it == index_.end()) break;
      cur = nodes[it->second].parent;
    }
  }
  return true;
}

std::uint64_t subtree_ops(const LiveNode& n) { return n.ops(); }

class NullPolicy final : public LivePolicy {
 public:
  std::uint64_t on_epoch(fs::OrigamiFs&, fs::LiveFaultContext&) override {
    return 0;
  }
};

class OrigamiPolicy final : public LivePolicy {
 public:
  OrigamiPolicy(std::shared_ptr<const ml::GbdtModel> model, LiveParams params,
                double min_predicted_benefit, double trigger)
      : model_(std::move(model)),
        params_(params),
        min_benefit_(min_predicted_benefit),
        trigger_(trigger) {}

  std::uint64_t on_epoch(fs::OrigamiFs& fsys,
                         fs::LiveFaultContext& ctx) override {
    if (model_ == nullptr) return 0;
    LiveEpoch e(fsys, ctx);
    if (cost::imbalance_factor(e.load) < trigger_) return 0;
    if (e.total_ops == 0) return 0;

    // Table-1 features over subtree totals. The maxima span every node;
    // the op shares divide by the sum of all subtree totals.
    double max_depth = 1, max_files = 1, max_dirs = 1;
    std::uint64_t all_subtree_ops = 0;
    for (const LiveNode& n : e.nodes) {
      max_depth = std::max(max_depth, static_cast<double>(n.depth));
      max_files = std::max(max_files, static_cast<double>(n.sub_files));
      max_dirs = std::max(max_dirs, static_cast<double>(n.sub_dirs));
      all_subtree_ops += n.ops();
    }
    const auto total = static_cast<double>(all_subtree_ops);
    std::vector<std::pair<std::size_t, double>> scored;
    std::array<float, core::kFeatureCount> feat{};
    for (const std::size_t i : e.movable_nodes(params_.min_subtree_ops)) {
      const LiveNode& n = e.nodes[i];
      const auto files = static_cast<double>(n.sub_files);
      const auto dirs = static_cast<double>(n.sub_dirs);
      const auto reads = static_cast<double>(n.reads);
      const auto writes = static_cast<double>(n.writes);
      feat[0] = static_cast<float>(n.depth / max_depth);
      feat[1] = static_cast<float>(files / max_files);
      feat[2] = static_cast<float>(dirs / max_dirs);
      feat[3] = static_cast<float>(reads / total);
      feat[4] = static_cast<float>(writes / total);
      feat[5] = static_cast<float>(writes / std::max(1.0, reads + writes));
      feat[6] = static_cast<float>((dirs + 1.0) / (files + 1.0));
      const double pred = model_->predict(feat);
      if (pred > min_benefit_) scored.emplace_back(i, pred);
    }
    std::stable_sort(scored.begin(), scored.end(),
                     [](const auto& a, const auto& b) {
                       return a.second > b.second;
                     });

    for (const auto& [i, pred] : scored) {
      if (e.moves >= static_cast<std::uint64_t>(params_.max_moves_per_epoch)) {
        break;
      }
      if (e.frozen(i)) continue;
      const std::uint32_t from = e.nodes[i].shard;
      if (e.down(from)) continue;
      const std::uint32_t to = e.least_loaded_except(from);
      if (to == kNoShard || e.load[from] <= e.load[to]) continue;
      const auto l = static_cast<double>(e.nodes[i].ops());
      if (e.load[to] + l > e.load[from]) continue;  // would overshoot
      e.export_subtree(i, to);
    }
    return e.moves;
  }

 private:
  std::shared_ptr<const ml::GbdtModel> model_;
  LiveParams params_;
  double min_benefit_;
  double trigger_;
};

class GreedySpillPolicy final : public LivePolicy {
 public:
  GreedySpillPolicy(LiveParams params, core::RebalanceTrigger trigger)
      : params_(params), trigger_(trigger) {}

  std::uint64_t on_epoch(fs::OrigamiFs& fsys,
                         fs::LiveFaultContext& ctx) override {
    LiveEpoch e(fsys, ctx);
    if (!e.fires(trigger_)) return 0;
    const double mean = e.mean_load();
    std::vector<std::size_t> order = e.movable_nodes(params_.min_subtree_ops);
    e.hottest_first(order, subtree_ops);
    for (const std::size_t i : order) {
      if (e.moves >= static_cast<std::uint64_t>(params_.max_moves_per_epoch)) {
        break;
      }
      if (e.frozen(i)) continue;
      const std::uint32_t from = e.nodes[i].shard;
      if (e.down(from)) continue;
      if (e.load[from] <= mean) continue;  // source already balanced
      const std::uint32_t to = e.least_loaded_except(from);
      if (to == kNoShard) break;
      const auto l = static_cast<double>(e.nodes[i].ops());
      if (e.load[to] + l > e.load[from] - l) continue;
      e.export_subtree(i, to);
    }
    return e.moves;
  }

 private:
  LiveParams params_;
  core::RebalanceTrigger trigger_;
};

class HashRepartPolicy final : public LivePolicy {
 public:
  HashRepartPolicy(int max_moves_per_epoch, core::RebalanceTrigger trigger)
      : max_moves_(max_moves_per_epoch), trigger_(trigger) {}

  std::uint64_t on_epoch(fs::OrigamiFs& fsys,
                         fs::LiveFaultContext& ctx) override {
    LiveEpoch e(fsys, ctx);
    if (!e.fires(trigger_)) return 0;
    const auto hash_owner = [&](fs::Ino ino) {
      return static_cast<std::uint32_t>(common::mix64(ino + 0x9e3779b9) %
                                        fsys.shard_count());
    };
    std::vector<std::size_t> drifted;
    for (std::size_t i = 0; i < e.nodes.size(); ++i) {
      const LiveNode& n = e.nodes[i];
      if (n.ino == fs::kRootIno || n.child_dirs != 0) continue;
      if (n.shard != hash_owner(n.ino)) drifted.push_back(i);
    }
    e.hottest_first(drifted, [](const LiveNode& n) { return n.self_ops; });
    for (const std::size_t i : drifted) {
      if (e.moves >= static_cast<std::uint64_t>(max_moves_)) break;
      const std::uint32_t want = hash_owner(e.nodes[i].ino);
      if (e.down(e.nodes[i].shard) || e.down(want)) continue;
      e.two_phase_move(i, want);
    }
    return e.moves;
  }

 private:
  int max_moves_;
  core::RebalanceTrigger trigger_;
};

class LoadFractionPolicy final : public LivePolicy {
 public:
  LoadFractionPolicy(LiveParams params, core::RebalanceTrigger trigger)
      : params_(params), trigger_(trigger) {}

  std::uint64_t on_epoch(fs::OrigamiFs& fsys,
                         fs::LiveFaultContext& ctx) override {
    LiveEpoch e(fsys, ctx);
    if (!e.fires(trigger_)) return 0;
    const double mean = e.mean_load();
    std::vector<std::size_t> order = e.movable_nodes(params_.min_subtree_ops);
    e.hottest_first(order, subtree_ops);

    // Exporters by excess, descending (shard id ties).
    std::vector<std::uint32_t> exporters;
    for (std::uint32_t s = 0; s < e.load.size(); ++s) {
      if (e.load[s] > mean && !e.down(s)) exporters.push_back(s);
    }
    std::stable_sort(exporters.begin(), exporters.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return e.load[a] > e.load[b];
                     });

    for (const std::uint32_t exporter : exporters) {
      const double excess = e.load[exporter] - mean;
      if (excess <= 0.0) continue;
      double shed = 0.0;
      for (const std::size_t i : order) {
        if (e.moves >=
            static_cast<std::uint64_t>(params_.max_moves_per_epoch)) {
          return e.moves;
        }
        if (shed >= excess) break;  // this exporter's fraction is met
        if (e.nodes[i].shard != exporter) continue;
        if (e.frozen(i)) continue;  // already moved with an exported subtree
        const auto l = static_cast<double>(e.nodes[i].ops());
        if (l > (excess - shed) * 1.5) continue;
        const std::uint32_t to = e.least_loaded_except(exporter);
        if (to == kNoShard) return e.moves;
        if (e.load[to] + l > e.load[exporter] - l) continue;
        if (e.export_subtree(i, to)) shed += l;
      }
    }
    return e.moves;
  }

 private:
  LiveParams params_;
  core::RebalanceTrigger trigger_;
};

}  // namespace

std::unique_ptr<LivePolicy> make_live_null() {
  return std::make_unique<NullPolicy>();
}

std::unique_ptr<LivePolicy> make_live_origami(
    std::shared_ptr<const ml::GbdtModel> model, LiveParams params,
    double min_predicted_benefit, double trigger) {
  return std::make_unique<OrigamiPolicy>(std::move(model), params,
                                         min_predicted_benefit, trigger);
}

std::unique_ptr<LivePolicy> make_live_greedy_spill(
    LiveParams params, core::RebalanceTrigger trigger) {
  return std::make_unique<GreedySpillPolicy>(params, trigger);
}

std::unique_ptr<LivePolicy> make_live_hash_repart(
    int max_moves_per_epoch, core::RebalanceTrigger trigger) {
  return std::make_unique<HashRepartPolicy>(max_moves_per_epoch, trigger);
}

std::unique_ptr<LivePolicy> make_live_load_fraction(
    LiveParams params, core::RebalanceTrigger trigger) {
  return std::make_unique<LoadFractionPolicy>(params, trigger);
}

}  // namespace origami::policy
