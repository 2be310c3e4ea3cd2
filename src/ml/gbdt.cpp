#include "origami/ml/gbdt.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <iterator>
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

/// Histogram-based trainer. Features are quantile-binned once into row-major
/// codes; every leaf keeps a contiguous range of `index_`, in ascending row
/// order, so splits partition in place. One pass over a leaf's rows, in
/// range order, fills every sampled feature's histogram and the leaf's
/// gradient sum. No sum is split or rebuilt as parent minus sibling: the
/// order of the double additions fixes every gain, and so the trees.
class GbdtTrainer {
 public:
  GbdtTrainer(const Dataset& train, const GbdtParams& params)
      : data_(train), params_(params), rng_(params.seed) {
    n_ = data_.size();
    nf_ = data_.num_features();
    bin_features();
    index_.reserve(n_);
    right_.resize(n_);
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
    int node = -1;  // node index in the tree being built
    double sum = 0.0;  // gradient sum over the leaf's rows
    // best candidate split:
    double gain = -1.0;
    int feature = -1;
    int bin = -1;
  };

  /// Quantile cuts from each feature's non-NaN values. NaN takes the last
  /// bin, so every split sends it right, as `Tree::predict` does
  /// (`NaN <= threshold` is false): a row's bins route it to the leaf that
  /// `predict` reaches, whatever its values.
  void bin_features() {
    const int nb = std::clamp(params_.max_bins, 2, 255);
    bin_upper_.assign(nf_, {});
    bin_offset_.assign(nf_ + 1, 0);
    codes_.assign(n_ * nf_, 0);
    for (std::size_t f = 0; f < nf_; ++f) {
      const std::vector<float> vals = data_.column(f);
      std::vector<float> sorted;
      std::copy_if(vals.begin(), vals.end(), std::back_inserter(sorted),
                   [](float v) { return !std::isnan(v); });
      std::sort(sorted.begin(), sorted.end());
      const std::size_t m = sorted.size();
      auto& uppers = bin_upper_[f];
      for (int b = 1; b < nb; ++b) {
        const std::size_t idx = static_cast<std::size_t>(b) * m / static_cast<std::size_t>(nb);
        if (idx >= m) break;
        const float cut = sorted[idx];
        if (uppers.empty() || cut > uppers.back()) uppers.push_back(cut);
      }
      for (std::size_t i = 0; i < n_; ++i) {
        const auto code =
            std::isnan(vals[i])
                ? uppers.size()
                : static_cast<std::size_t>(
                      std::lower_bound(uppers.begin(), uppers.end(), vals[i]) -
                      uppers.begin());
        codes_[i * nf_ + f] = static_cast<std::uint8_t>(code);
      }
      bin_offset_[f + 1] = bin_offset_[f] + uppers.size() + 1;
    }
    hist_g_.resize(bin_offset_[nf_]);
    hist_c_.resize(bin_offset_[nf_]);
  }

  /// Sums the leaf's gradients and, when it is large enough to split,
  /// builds every sampled feature's histogram in the same pass and keeps
  /// the best split: highest gain, lowest feature, then lowest bin.
  void find_best_split(Leaf& leaf) {
    const std::size_t count = leaf.end - leaf.begin;
    const auto min_leaf = static_cast<std::size_t>(params_.min_data_in_leaf);
    leaf.gain = -1.0;
    double total = 0.0;
    if (count < 2 * min_leaf) {
      for (std::size_t i = leaf.begin; i < leaf.end; ++i) {
        total += grad_[index_[i]];
      }
      leaf.sum = total;
      return;
    }

    std::fill(hist_g_.begin(), hist_g_.end(), 0.0);
    std::fill(hist_c_.begin(), hist_c_.end(), 0u);
    for (std::size_t i = leaf.begin; i < leaf.end; ++i) {
      const std::size_t row = index_[i];
      const double g = grad_[row];
      total += g;
      const std::uint8_t* codes = codes_.data() + row * nf_;
      for (const std::size_t f : features_) {
        const std::size_t b = bin_offset_[f] + codes[f];
        hist_g_[b] += g;
        ++hist_c_[b];
      }
    }
    leaf.sum = total;

    const double lambda = params_.lambda_l2;
    const double parent_score =
        total * total / (static_cast<double>(count) + lambda);
    for (const std::size_t f : features_) {
      const double* hist_g = hist_g_.data() + bin_offset_[f];
      const std::uint32_t* hist_c = hist_c_.data() + bin_offset_[f];
      const std::size_t nb = bin_offset_[f + 1] - bin_offset_[f];
      double gl = 0.0;
      std::size_t cl = 0;
      for (std::size_t b = 0; b + 1 < nb; ++b) {
        gl += hist_g[b];
        cl += hist_c[b];
        const std::size_t cr = count - cl;
        if (cl < min_leaf || cr < min_leaf) continue;
        const double gr = total - gl;
        const double gain =
            gl * gl / (static_cast<double>(cl) + lambda) +
            gr * gr / (static_cast<double>(cr) + lambda) - parent_score;
        if (gain > leaf.gain) {
          leaf.gain = gain;
          leaf.feature = static_cast<int>(f);
          leaf.bin = static_cast<int>(b);
        }
      }
    }
  }

  /// Stable in-place partition of a leaf's range around its chosen split:
  /// left rows compact forward, right rows go through `right_` and land
  /// after them. Both stores happen for every row, so the loop has no
  /// data-dependent branch. Returns the boundary position.
  std::size_t apply_split(const Leaf& leaf) {
    const auto f = static_cast<std::size_t>(leaf.feature);
    const auto bin = static_cast<std::uint8_t>(leaf.bin);
    std::size_t mid = leaf.begin;
    std::size_t right = 0;
    for (std::size_t i = leaf.begin; i < leaf.end; ++i) {
      const std::size_t row = index_[i];
      const bool left = codes_[row * nf_ + f] <= bin;
      index_[mid] = row;  // mid <= i: this slot was read already
      right_[right] = row;
      mid += static_cast<std::size_t>(left);
      right += static_cast<std::size_t>(!left);
    }
    std::copy_n(right_.begin(), right,
                index_.begin() + static_cast<std::ptrdiff_t>(mid));
    return mid;
  }

  [[nodiscard]] double leaf_value(double sum, std::size_t count) const {
    return -params_.learning_rate * sum /
           (static_cast<double>(count) + params_.lambda_l2);
  }

  /// Draws this tree's features (LightGBM's feature_fraction) and rows
  /// (bagging), in that order; rows left out go to `out_of_bag_`.
  void sample() {
    features_.clear();
    if (params_.feature_fraction < 1.0) {
      for (std::size_t f = 0; f < nf_; ++f) {
        if (rng_.uniform_double() < params_.feature_fraction) {
          features_.push_back(f);
        }
      }
      if (features_.empty()) features_.push_back(rng_.uniform(nf_));
    } else {
      for (std::size_t f = 0; f < nf_; ++f) features_.push_back(f);
    }

    index_.clear();
    out_of_bag_.clear();
    if (params_.bagging_fraction >= 1.0) {
      index_.resize(n_);
      std::iota(index_.begin(), index_.end(), 0);
    } else {
      for (std::size_t i = 0; i < n_; ++i) {
        if (rng_.uniform_double() < params_.bagging_fraction) {
          index_.push_back(i);
        } else {
          out_of_bag_.push_back(i);
        }
      }
      if (index_.empty()) {
        // Every row was left out, so out_of_bag_[r] == r.
        const std::size_t r = rng_.uniform(n_);
        index_.push_back(r);
        out_of_bag_.erase(out_of_bag_.begin() + static_cast<std::ptrdiff_t>(r));
      }
    }
  }

  /// Grows one tree on the current gradients and adds its output to
  /// `pred_`: in-bag rows from the leaf range they ended in, out-of-bag
  /// rows through `Tree::predict`.
  GbdtModel::Tree build_tree(std::vector<double>& importance) {
    sample();

    GbdtModel::Tree tree;
    tree.nodes.push_back({});
    leaves_.clear();
    Leaf root;
    root.begin = 0;
    root.end = index_.size();
    root.node = 0;
    find_best_split(root);
    leaves_.push_back(root);

    int leaf_count = 1;
    while (leaf_count < params_.max_leaves) {
      // Leaf-wise: split the leaf with the best gain. Level-wise: split the
      // oldest splittable leaf (FIFO), which grows the tree breadth-first.
      std::size_t pick = leaves_.size();
      if (params_.leaf_wise) {
        double best = 0.0;
        for (std::size_t i = 0; i < leaves_.size(); ++i) {
          if (leaves_[i].gain > best) {
            best = leaves_[i].gain;
            pick = i;
          }
        }
      } else {
        for (std::size_t i = 0; i < leaves_.size(); ++i) {
          if (leaves_[i].gain > 0.0) {
            pick = i;
            break;
          }
        }
      }
      if (pick >= leaves_.size()) break;  // nothing splittable

      const Leaf leaf = leaves_[pick];
      leaves_.erase(leaves_.begin() + static_cast<std::ptrdiff_t>(pick));
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
      leaves_.push_back(left);
      leaves_.push_back(right);
      ++leaf_count;
    }

    for (const Leaf& leaf : leaves_) {
      const double value = leaf_value(leaf.sum, leaf.end - leaf.begin);
      tree.nodes[static_cast<std::size_t>(leaf.node)].value = value;
      for (std::size_t i = leaf.begin; i < leaf.end; ++i) {
        pred_[index_[i]] += value;
      }
    }
    for (const std::size_t row : out_of_bag_) {
      pred_[row] += tree.predict(data_.row(row));
    }
    return tree;
  }

  const Dataset& data_;
  GbdtParams params_;
  common::Xoshiro256 rng_;

  std::size_t n_ = 0;
  std::size_t nf_ = 0;
  std::vector<std::vector<float>> bin_upper_;  // per feature
  std::vector<std::size_t> bin_offset_;  // feature f's bins start here
  std::vector<std::uint8_t> codes_;      // row-major bins, n_ x nf_
  std::vector<double> pred_;
  std::vector<float> grad_;
  // Reused across splits and trees:
  std::vector<double> hist_g_;
  std::vector<std::uint32_t> hist_c_;
  std::vector<std::size_t> index_;
  std::vector<std::size_t> right_;
  std::vector<std::size_t> out_of_bag_;
  std::vector<std::size_t> features_;  // this tree's, ascending
  std::vector<Leaf> leaves_;
};

GbdtModel GbdtModel::train(const Dataset& train, const GbdtParams& params,
                           const Dataset* valid) {
  if (train.size() == 0 || train.num_features() == 0) {
    GbdtModel empty;
    empty.num_features_ = train.num_features();
    empty.importance_.assign(train.num_features(), 0.0);
    return empty;
  }
  GbdtTrainer trainer(train, params);
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
