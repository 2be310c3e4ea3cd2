#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "origami/cluster/balancer.hpp"
#include "origami/core/features.hpp"
#include "origami/core/meta_opt.hpp"
#include "origami/core/subtree.hpp"
#include "origami/ml/gbdt.hpp"

namespace origami::core {

/// EWMA + patience damping shared by every trigger: feed one raw imbalance
/// sample per epoch, and it answers whether the smoothed value has stayed
/// over `threshold` for `patience` consecutive samples. `RebalanceTrigger`
/// wraps it, so every dynamic policy, epoch or live, smooths the same way.
class TriggerSmoother {
 public:
  bool over(double raw, double threshold, double ewma_alpha, int patience) {
    const double alpha = std::clamp(ewma_alpha, 0.0, 1.0);
    smoothed_ =
        smoothed_ < 0.0 ? raw : alpha * raw + (1.0 - alpha) * smoothed_;
    if (smoothed_ > threshold) {
      ++over_count_;
    } else {
      over_count_ = 0;
    }
    return over_count_ >= std::max(1, patience);
  }
  /// Last smoothed sample, or -1 before the first feed.
  [[nodiscard]] double smoothed() const { return smoothed_; }
  void reset() {
    smoothed_ = -1.0;
    over_count_ = 0;
  }

 private:
  double smoothed_ = -1.0;
  int over_count_ = 0;
};

/// Lunule-style rebalance trigger: act only when the busy-time imbalance
/// factor exceeds `threshold`. Optional EWMA smoothing (`ewma_alpha` < 1)
/// and `patience` (consecutive over-threshold epochs required) damp
/// transient spikes — e.g. the migration busy-work of the previous epoch.
struct RebalanceTrigger {
  double threshold = 0.10;
  double ewma_alpha = 1.0;  ///< 1 = raw per-epoch imbalance
  int patience = 1;         ///< epochs over threshold before firing

  RebalanceTrigger() = default;
  explicit RebalanceTrigger(double threshold_in, double alpha = 1.0,
                            int patience_in = 1)
      : threshold(threshold_in), ewma_alpha(alpha), patience(patience_in) {}

  /// Busy-time imbalance of the epoch, fed through `fire`; idle epochs
  /// (no ops executed) never fire and leave the smoothing state alone.
  bool should_rebalance(const cluster::EpochSnapshot& snap);
  /// Feeds one raw imbalance sample; true when the smoothed value has been
  /// over `threshold` for `patience` consecutive samples.
  bool fire(double raw) {
    return smoother_.over(raw, threshold, ewma_alpha, patience);
  }

 private:
  TriggerSmoother smoother_;
};

/// The oracle upper bound and label generator: runs Algorithm 1 on the
/// *actual* upcoming operations at every epoch boundary. `on_labels`
/// receives the per-candidate (features, benefit) pairs of §4.3 step ②–③.
class MetaOptOracleBalancer final : public cluster::Balancer {
 public:
  using LabelSink = std::function<void(
      const fsns::DirTree& tree, const SubtreeView& view,
      const std::vector<MetaOpt::Labelled>& labels)>;

  MetaOptOracleBalancer(cost::CostModel model, MetaOptParams params,
                        RebalanceTrigger trigger = {},
                        LabelSink on_labels = nullptr)
      : model_(std::move(model)),
        params_(params),
        trigger_(trigger),
        on_labels_(std::move(on_labels)) {}

  [[nodiscard]] std::string name() const override { return "meta-opt"; }

  std::vector<cluster::MigrationDecision> rebalance(
      const cluster::EpochSnapshot& snapshot, const fsns::DirTree& tree,
      const mds::PartitionMap& map) override;

 private:
  cost::CostModel model_;
  MetaOptParams params_;
  RebalanceTrigger trigger_;
  LabelSink on_labels_;
};

/// Any regressor usable as Origami's benefit model (GBDT, MLP, or a
/// hand-written heuristic): Table-1 features in, predicted JCT benefit
/// (seconds) out. It must be a pure function of its features:
/// `OrigamiBalancer` prices each candidate once per rebalance and reuses
/// the price on every later attempt of the call.
using BenefitPredictor = std::function<double(std::span<const float>)>;

/// Origami's online policy (§4.2): a trained regressor predicts each
/// subtree's migration benefit from Table-1 features; MDS-0's Metadata
/// Balancer greedily migrates the highest-benefit subtree to the least
/// loaded MDS until predicted benefits fall below the threshold.
class OrigamiBalancer final : public cluster::Balancer {
 public:
  struct Params {
    /// Stop when predicted benefit (seconds of JCT) drops below this.
    double min_predicted_benefit = 0.01;
    int max_migrations_per_epoch = 24;
    std::size_t max_candidates = 1024;
    std::uint64_t min_subtree_ops = 16;
    /// Appendix-A imbalance guard Δ, applied to measured RCT bins.
    sim::SimTime delta = sim::millis(800);
    bool cache_enabled = true;
    std::uint32_t cache_depth = 3;
    /// Migration throttle: total inodes exported per epoch.
    std::uint64_t max_inodes_per_epoch = 100'000;
    /// Epochs over which the one-time subtree-export cost is amortised
    /// when weighing a move against its per-epoch benefit.
    double migration_amortization = 8.0;
  };

  OrigamiBalancer(std::shared_ptr<const ml::GbdtModel> model,
                  cost::CostModel cost_model, Params params,
                  RebalanceTrigger trigger = {})
      : predictor_(model == nullptr
                       ? BenefitPredictor{}
                       : BenefitPredictor([model](std::span<const float> x) {
                           return model->predict(x);
                         })),
        cost_model_(std::move(cost_model)),
        params_(params),
        trigger_(trigger) {}
  OrigamiBalancer(std::shared_ptr<const ml::GbdtModel> model,
                  cost::CostModel cost_model)
      : OrigamiBalancer(std::move(model), std::move(cost_model), Params{}) {}
  /// Model-family-agnostic variant: plug in any predictor.
  OrigamiBalancer(BenefitPredictor predictor, cost::CostModel cost_model,
                  Params params, RebalanceTrigger trigger = {})
      : predictor_(std::move(predictor)),
        cost_model_(std::move(cost_model)),
        params_(params),
        trigger_(trigger) {}

  [[nodiscard]] std::string name() const override { return "origami"; }

  std::vector<cluster::MigrationDecision> rebalance(
      const cluster::EpochSnapshot& snapshot, const fsns::DirTree& tree,
      const mds::PartitionMap& map) override;

 private:
  BenefitPredictor predictor_;
  cost::CostModel cost_model_;
  Params params_;
  RebalanceTrigger trigger_;
};

/// The popularity-predicting baseline ("ML-tree", after LoADM): the model
/// predicts next-epoch subtree *load*; the balancer bin-packs hot subtrees
/// from overloaded onto underloaded MDSs with no locality costing, which
/// makes it migration-aggressive (§5.2).
class MlTreeBalancer final : public cluster::Balancer {
 public:
  struct Params {
    int max_migrations_per_epoch = 24;
    std::size_t max_candidates = 1024;
    std::uint64_t min_subtree_ops = 8;
    /// Migrate until the predicted per-MDS load spread falls below this
    /// fraction of the mean (aggressive equalisation).
    double target_spread = 0.02;
    /// Migration throttle: total inodes exported per epoch. Generous —
    /// ML-tree is the migration-aggressive baseline — but bounded so the
    /// cluster keeps serving.
    std::uint64_t max_inodes_per_epoch = 150'000;
  };

  MlTreeBalancer(std::shared_ptr<const ml::GbdtModel> popularity_model,
                 Params params, RebalanceTrigger trigger = {})
      : model_(std::move(popularity_model)),
        params_(params),
        trigger_(trigger) {}
  explicit MlTreeBalancer(std::shared_ptr<const ml::GbdtModel> popularity_model)
      : MlTreeBalancer(std::move(popularity_model), Params{}) {}

  [[nodiscard]] std::string name() const override { return "ml-tree"; }

  std::vector<cluster::MigrationDecision> rebalance(
      const cluster::EpochSnapshot& snapshot, const fsns::DirTree& tree,
      const mds::PartitionMap& map) override;

 private:
  std::shared_ptr<const ml::GbdtModel> model_;
  Params params_;
  RebalanceTrigger trigger_;
};

}  // namespace origami::core
