#include "origami/ml/gbdt.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>

#include "origami/ml/metrics.hpp"

namespace origami::ml {

double GbdtModel::Tree::predict(std::span<const float> x) const {
  int node = 0;
  while (nodes[static_cast<std::size_t>(node)].feature >= 0) {
    const Node& n = nodes[static_cast<std::size_t>(node)];
    node = x[static_cast<std::size_t>(n.feature)] <= n.threshold ? n.left
                                                                 : n.right;
  }
  return nodes[static_cast<std::size_t>(node)].value;
}

double GbdtModel::predict(std::span<const float> features) const {
  double out = base_score_;
  for (const Tree& t : trees_) out += t.predict(features);
  return out;
}

std::vector<double> GbdtModel::predict_batch(const Dataset& data) const {
  std::vector<double> out(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) out[i] = predict(data.row(i));
  return out;
}

std::vector<std::size_t> GbdtModel::importance_ranking() const {
  std::vector<std::size_t> order(importance_.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return importance_[a] > importance_[b];
  });
  return order;
}

// ---------------------------------------------------------------------------
// Training
// ---------------------------------------------------------------------------

/// Histogram-based trainer. Features are quantile-binned once; every leaf
/// keeps a contiguous index range so splits partition in place.
class GbdtTrainer {
 public:
  GbdtTrainer(const Dataset& train, const GbdtParams& params,
              common::ThreadPool* pool)
      : data_(train), params_(params), pool_(pool), rng_(params.seed) {
    n_ = data_.size();
    nf_ = data_.num_features();
    bin_feature();
  }

  GbdtModel run(const Dataset* valid) {
    GbdtModel model;
    model.num_features_ = nf_;
    model.importance_.assign(nf_, 0.0);

    double mean = 0.0;
    for (std::size_t i = 0; i < n_; ++i) mean += data_.label(i);
    mean /= std::max<std::size_t>(1, n_);
    model.base_score_ = mean;

    pred_.assign(n_, mean);
    grad_.assign(n_, 0.0f);

    const bool early_stop =
        valid != nullptr && params_.early_stopping_rounds > 0;
    // Validation predictions grow by one tree per round: the same sequence
    // of additions `GbdtModel::predict` makes, so the RMSE is bit-identical
    // to re-predicting with every tree so far.
    std::vector<double> valid_pred(early_stop ? valid->size() : 0, mean);
    double best_valid = std::numeric_limits<double>::infinity();
    int rounds_since_best = 0;

    for (int round = 0; round < params_.rounds; ++round) {
      for (std::size_t i = 0; i < n_; ++i) {
        grad_[i] = static_cast<float>(pred_[i] - data_.label(i));
      }
      GbdtModel::Tree tree = build_tree(model.importance_);
      for (std::size_t i = 0; i < n_; ++i) {
        pred_[i] += tree.predict(data_.row(i));
      }
      for (std::size_t i = 0; i < valid_pred.size(); ++i) {
        valid_pred[i] += tree.predict(valid->row(i));
      }
      model.trees_.push_back(std::move(tree));

      if (early_stop) {
        const double v = rmse(valid_pred, valid->labels());
        if (v + 1e-12 < best_valid) {
          best_valid = v;
          rounds_since_best = 0;
        } else if (++rounds_since_best >= params_.early_stopping_rounds) {
          break;
        }
      }
    }
    return model;
  }

 private:
  struct Leaf {
    std::size_t begin = 0;
    std::size_t end = 0;
    int node = -1;        // node index in the tree being built
    // best candidate split:
    double gain = -1.0;
    int feature = -1;
    int bin = -1;
    double left_sum = 0.0;
    std::size_t left_count = 0;
    double sum = 0.0;
  };

  void bin_feature() {
    const int nb = std::clamp(params_.max_bins, 2, 255);
    bin_upper_.assign(nf_, {});
    codes_.assign(nf_ * n_, 0);
    for (std::size_t f = 0; f < nf_; ++f) {
      std::vector<float> vals = data_.column(f);
      std::vector<float> sorted = vals;
      std::sort(sorted.begin(), sorted.end());
      auto& uppers = bin_upper_[f];
      for (int b = 1; b < nb; ++b) {
        const std::size_t idx = static_cast<std::size_t>(b) * n_ / static_cast<std::size_t>(nb);
        if (idx >= n_) break;
        const float cut = sorted[idx];
        if (uppers.empty() || cut > uppers.back()) uppers.push_back(cut);
      }
      for (std::size_t i = 0; i < n_; ++i) {
        const auto it =
            std::lower_bound(uppers.begin(), uppers.end(), vals[i]);
        codes_[f * n_ + i] =
            static_cast<std::uint8_t>(std::distance(uppers.begin(), it));
      }
    }
  }

  [[nodiscard]] std::size_t bins_of(std::size_t f) const {
    return bin_upper_[f].size() + 1;
  }

  /// Finds the best split for `leaf` over all features, filling its
  /// candidate fields. Histograms are built feature-parallel on the pool.
  void find_best_split(Leaf& leaf) {
    const std::size_t count = leaf.end - leaf.begin;
    leaf.gain = -1.0;
    if (count < 2 * static_cast<std::size_t>(params_.min_data_in_leaf)) return;

    double total = 0.0;
    for (std::size_t i = leaf.begin; i < leaf.end; ++i) {
      total += grad_[index_[i]];
    }
    leaf.sum = total;

    const double lambda = params_.lambda_l2;
    const double parent_score =
        total * total / (static_cast<double>(count) + lambda);
    const bool use_mask = !feature_mask_.empty();

    std::vector<double> best_gain(nf_, -1.0);
    std::vector<int> best_bin(nf_, -1);
    std::vector<double> best_left(nf_, 0.0);
    std::vector<std::size_t> best_left_count(nf_, 0);

    auto scan_features = [&](std::size_t fb, std::size_t fe) {
      std::vector<double> hist_g;
      std::vector<std::uint32_t> hist_c;
      for (std::size_t f = fb; f < fe; ++f) {
        if (use_mask && !feature_mask_[f]) continue;
        const std::size_t nb = bins_of(f);
        hist_g.assign(nb, 0.0);
        hist_c.assign(nb, 0);
        const std::uint8_t* col = codes_.data() + f * n_;
        for (std::size_t i = leaf.begin; i < leaf.end; ++i) {
          const std::size_t row = index_[i];
          hist_g[col[row]] += grad_[row];
          ++hist_c[col[row]];
        }
        double gl = 0.0;
        std::size_t cl = 0;
        for (std::size_t b = 0; b + 1 < nb; ++b) {
          gl += hist_g[b];
          cl += hist_c[b];
          const std::size_t cr = count - cl;
          if (cl < static_cast<std::size_t>(params_.min_data_in_leaf) ||
              cr < static_cast<std::size_t>(params_.min_data_in_leaf)) {
            continue;
          }
          const double gr = total - gl;
          const double gain =
              gl * gl / (static_cast<double>(cl) + lambda) +
              gr * gr / (static_cast<double>(cr) + lambda) - parent_score;
          if (gain > best_gain[f]) {
            best_gain[f] = gain;
            best_bin[f] = static_cast<int>(b);
            best_left[f] = gl;
            best_left_count[f] = cl;
          }
        }
      }
    };

    if (pool_ != nullptr && pool_->size() > 1 && nf_ > 1) {
      common::parallel_for(
          *pool_, nf_, [&](std::size_t b, std::size_t e) { scan_features(b, e); },
          /*min_chunk=*/1);
    } else {
      scan_features(0, nf_);
    }

    for (std::size_t f = 0; f < nf_; ++f) {
      if (best_gain[f] > leaf.gain) {
        leaf.gain = best_gain[f];
        leaf.feature = static_cast<int>(f);
        leaf.bin = best_bin[f];
        leaf.left_sum = best_left[f];
        leaf.left_count = best_left_count[f];
      }
    }
  }

  /// Partitions a leaf's index range around its chosen split; returns the
  /// boundary position.
  std::size_t apply_split(const Leaf& leaf) {
    const std::uint8_t* col =
        codes_.data() + static_cast<std::size_t>(leaf.feature) * n_;
    const auto bin = static_cast<std::uint8_t>(leaf.bin);
    auto mid = std::stable_partition(
        index_.begin() + static_cast<std::ptrdiff_t>(leaf.begin),
        index_.begin() + static_cast<std::ptrdiff_t>(leaf.end),
        [&](std::size_t row) { return col[row] <= bin; });
    return static_cast<std::size_t>(std::distance(index_.begin(), mid));
  }

  [[nodiscard]] double leaf_value(double sum, std::size_t count) const {
    return -params_.learning_rate * sum /
           (static_cast<double>(count) + params_.lambda_l2);
  }

  GbdtModel::Tree build_tree(std::vector<double>& importance) {
    // Feature sampling (LightGBM's feature_fraction): one mask per tree.
    feature_mask_.clear();
    if (params_.feature_fraction < 1.0) {
      feature_mask_.assign(nf_, false);
      std::size_t enabled = 0;
      for (std::size_t f = 0; f < nf_; ++f) {
        if (rng_.uniform_double() < params_.feature_fraction) {
          feature_mask_[f] = true;
          ++enabled;
        }
      }
      if (enabled == 0) feature_mask_[rng_.uniform(nf_)] = true;
    }

    // Row sampling (bagging).
    index_.clear();
    if (params_.bagging_fraction >= 1.0) {
      index_.resize(n_);
      std::iota(index_.begin(), index_.end(), 0);
    } else {
      for (std::size_t i = 0; i < n_; ++i) {
        if (rng_.uniform_double() < params_.bagging_fraction) index_.push_back(i);
      }
      if (index_.empty()) index_.push_back(rng_.uniform(n_));
    }

    GbdtModel::Tree tree;
    tree.nodes.push_back({});
    std::vector<Leaf> leaves;
    Leaf root;
    root.begin = 0;
    root.end = index_.size();
    root.node = 0;
    find_best_split(root);
    leaves.push_back(root);

    int leaf_count = 1;
    while (leaf_count < params_.max_leaves) {
      // Leaf-wise: split the leaf with the best gain. Level-wise: split the
      // oldest splittable leaf (FIFO), which grows the tree breadth-first.
      std::size_t pick = leaves.size();
      if (params_.leaf_wise) {
        double best = 0.0;
        for (std::size_t i = 0; i < leaves.size(); ++i) {
          if (leaves[i].gain > best) {
            best = leaves[i].gain;
            pick = i;
          }
        }
      } else {
        for (std::size_t i = 0; i < leaves.size(); ++i) {
          if (leaves[i].gain > 0.0) {
            pick = i;
            break;
          }
        }
      }
      if (pick >= leaves.size()) break;  // nothing splittable

      Leaf leaf = leaves[pick];
      leaves.erase(leaves.begin() + static_cast<std::ptrdiff_t>(pick));
      importance[static_cast<std::size_t>(leaf.feature)] += leaf.gain;

      const std::size_t mid = apply_split(leaf);
      const int left_node = static_cast<int>(tree.nodes.size());
      const int right_node = left_node + 1;
      {
        GbdtModel::Node& parent =
            tree.nodes[static_cast<std::size_t>(leaf.node)];
        parent.feature = leaf.feature;
        parent.threshold =
            bin_upper_[static_cast<std::size_t>(leaf.feature)]
                      [static_cast<std::size_t>(leaf.bin)];
        parent.left = left_node;
        parent.right = right_node;
      }
      tree.nodes.push_back({});
      tree.nodes.push_back({});

      Leaf left;
      left.begin = leaf.begin;
      left.end = mid;
      left.node = left_node;
      find_best_split(left);
      Leaf right;
      right.begin = mid;
      right.end = leaf.end;
      right.node = right_node;
      find_best_split(right);
      leaves.push_back(left);
      leaves.push_back(right);
      ++leaf_count;
    }

    // Finalise leaf values.
    for (const Leaf& leaf : leaves) {
      double sum = 0.0;
      for (std::size_t i = leaf.begin; i < leaf.end; ++i) sum += grad_[index_[i]];
      tree.nodes[static_cast<std::size_t>(leaf.node)].value =
          leaf_value(sum, leaf.end - leaf.begin);
    }
    return tree;
  }

  const Dataset& data_;
  GbdtParams params_;
  common::ThreadPool* pool_;
  common::Xoshiro256 rng_;

  std::size_t n_ = 0;
  std::size_t nf_ = 0;
  std::vector<std::vector<float>> bin_upper_;  // per feature
  std::vector<std::uint8_t> codes_;            // column-major bins
  std::vector<double> pred_;
  std::vector<float> grad_;
  std::vector<std::size_t> index_;
  std::vector<bool> feature_mask_;
};

GbdtModel GbdtModel::train(const Dataset& train, const GbdtParams& params,
                           const Dataset* valid, common::ThreadPool* pool) {
  if (train.size() == 0 || train.num_features() == 0) {
    GbdtModel empty;
    empty.num_features_ = train.num_features();
    empty.importance_.assign(train.num_features(), 0.0);
    return empty;
  }
  GbdtTrainer trainer(train, params, pool);
  return trainer.run(valid);
}

// ---------------------------------------------------------------------------
// Serialisation (line-oriented text)
// ---------------------------------------------------------------------------

void GbdtModel::save(std::ostream& out) const {
  out.precision(17);  // bit-exact double roundtrip
  out << "origami-gbdt 1\n";
  out << num_features_ << ' ' << base_score_ << ' ' << trees_.size() << '\n';
  for (double imp : importance_) out << imp << ' ';
  out << '\n';
  for (const Tree& t : trees_) {
    out << t.nodes.size() << '\n';
    for (const Node& n : t.nodes) {
      out << n.feature << ' ' << n.threshold << ' ' << n.left << ' ' << n.right
          << ' ' << n.value << '\n';
    }
  }
}

GbdtModel GbdtModel::load(std::istream& in) {
  GbdtModel model;
  std::string magic;
  int version = 0;
  in >> magic >> version;
  if (magic != "origami-gbdt" || version != 1) return model;
  std::size_t trees = 0;
  in >> model.num_features_ >> model.base_score_ >> trees;
  model.importance_.resize(model.num_features_);
  for (double& imp : model.importance_) in >> imp;
  model.trees_.resize(trees);
  for (Tree& t : model.trees_) {
    std::size_t nodes = 0;
    in >> nodes;
    t.nodes.resize(nodes);
    for (Node& n : t.nodes) {
      in >> n.feature >> n.threshold >> n.left >> n.right >> n.value;
    }
  }
  return model;
}

}  // namespace origami::ml
