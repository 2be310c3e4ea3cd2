#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "origami/ml/dataset.hpp"

namespace origami::ml {

/// LightGBM-style training knobs. The paper's deployed model uses 400
/// boosting rounds and 32 leaves (§4.3); those are the defaults.
struct GbdtParams {
  int rounds = 400;
  int max_leaves = 32;
  double learning_rate = 0.05;
  int max_bins = 64;
  int min_data_in_leaf = 20;
  double lambda_l2 = 1.0;
  /// Fraction of rows sampled per tree (1.0 = no bagging).
  double bagging_fraction = 1.0;
  /// Fraction of features considered per tree (1.0 = all; LightGBM's
  /// feature_fraction).
  double feature_fraction = 1.0;
  /// Leaf-wise (LightGBM) when true; level-wise (classic GBDT) when false.
  bool leaf_wise = true;
  std::uint64_t seed = 17;
  /// Stop when validation RMSE hasn't improved for this many rounds
  /// (requires a validation set; 0 disables).
  int early_stopping_rounds = 0;
};

/// Gradient-boosted regression trees over histogram-binned features:
/// leaf-wise growth with gain-based best-leaf selection (the LightGBM
/// algorithm) or level-wise growth (classic GBDT), squared-error loss.
/// Training is serial and deterministic: the same data and params give the
/// same model, byte for byte.
class GbdtModel {
 public:
  /// Trains on `train`; `valid` enables early stopping and is otherwise
  /// only used for the validation curve.
  static GbdtModel train(const Dataset& train, const GbdtParams& params,
                         const Dataset* valid = nullptr);

  [[nodiscard]] double predict(std::span<const float> features) const;
  [[nodiscard]] std::vector<double> predict_batch(const Dataset& data) const;

  /// Total split gain accumulated per feature (the "Gini importance"
  /// LightGBM reports); index-aligned with the training features.
  [[nodiscard]] const std::vector<double>& feature_importance() const noexcept {
    return importance_;
  }
  /// Features ranked by importance, most important first.
  [[nodiscard]] std::vector<std::size_t> importance_ranking() const;

  [[nodiscard]] int num_trees() const noexcept {
    return static_cast<int>(trees_.size());
  }
  [[nodiscard]] double base_score() const noexcept { return base_score_; }
  [[nodiscard]] std::size_t num_features() const noexcept {
    return num_features_;
  }

  /// Text (de)serialisation for model exchange between label-generation
  /// and serving runs.
  void save(std::ostream& out) const;
  static GbdtModel load(std::istream& in);

 private:
  struct Node {
    int feature = -1;       // -1 marks a leaf
    float threshold = 0.f;  // goes left when x[feature] <= threshold
    int left = -1;
    int right = -1;
    double value = 0.0;     // leaf output (already scaled by learning rate)
  };
  struct Tree {
    std::vector<Node> nodes;
    [[nodiscard]] double predict(std::span<const float> x) const;
  };

  friend class GbdtTrainer;

  std::vector<Tree> trees_;
  std::vector<double> importance_;
  double base_score_ = 0.0;
  std::size_t num_features_ = 0;
};

}  // namespace origami::ml
