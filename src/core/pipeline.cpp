#include "origami/core/pipeline.hpp"

#include <algorithm>
#include <fstream>
#include <future>
#include <numeric>

#include "origami/common/thread_pool.hpp"
#include "origami/ml/metrics.hpp"

namespace origami::core {

namespace {

/// Drives Meta-OPT rebalancing while harvesting training rows (§4.3 ①–④).
class LabelCollectorBalancer final : public cluster::Balancer {
 public:
  LabelCollectorBalancer(cost::CostModel model, const LabelGenOptions& options,
                         ml::Dataset& benefit_out, ml::Dataset& popularity_out)
      : model_(std::move(model)),
        options_(options),
        benefit_(benefit_out),
        popularity_(popularity_out) {}

  [[nodiscard]] std::string name() const override { return "label-gen"; }

  std::vector<cluster::MigrationDecision> rebalance(
      const cluster::EpochSnapshot& snapshot, const fsns::DirTree& tree,
      const mds::PartitionMap& map) override {
    if (snapshot.upcoming.empty() || snapshot.dir_stats == nullptr) return {};

    // Features come from what the Data Collector observed last epoch …
    const SubtreeView observed =
        SubtreeView::build(tree, *snapshot.dir_stats, map);
    if (observed.total_ops() == 0) return {};
    const FeatureExtractor fx(tree, observed);

    // … labels from Meta-OPT on the upcoming window (the known future).
    MetaOpt engine(model_, options_.meta_opt);
    std::vector<MetaOpt::Labelled> labelled;
    auto decisions = engine.optimize(snapshot.upcoming, tree, map, &labelled);

    // Feature rows are extracted in parallel on the analysis pool; rows are
    // appended to the datasets in candidate order afterwards, so the
    // emitted training data is identical at any thread count.
    std::vector<fsns::NodeId> kept;
    std::vector<float> kept_label;
    kept.reserve(labelled.size());
    for (const MetaOpt::Labelled& l : labelled) {
      if (observed.ops(l.subtree) < options_.min_feature_ops) continue;
      kept.push_back(l.subtree);
      kept_label.push_back(static_cast<float>(sim::to_seconds(l.benefit)));
    }
    const auto benefit_rows = fx.extract_batch(kept);
    for (std::size_t i = 0; i < kept.size(); ++i) {
      benefit_.add_row(benefit_rows[i], kept_label[i]);
    }

    // Popularity labels for the ML-tree baseline (subtree granularity,
    // §5.1): label = the subtree's access share in the upcoming window.
    const auto future_stats =
        window_dir_stats(snapshot.upcoming, tree, map, model_,
                         options_.meta_opt.cache_enabled,
                         options_.meta_opt.cache_depth);
    const SubtreeView future = SubtreeView::build(tree, future_stats, map);
    const double denom =
        std::max<double>(1.0, static_cast<double>(future.total_ops()));
    const auto cands = observed.candidates(options_.meta_opt.max_candidates,
                                           options_.min_feature_ops);
    const auto popularity_rows = fx.extract_batch(cands);
    for (std::size_t i = 0; i < cands.size(); ++i) {
      popularity_.add_row(popularity_rows[i],
                          static_cast<float>(
                              static_cast<double>(future.ops(cands[i])) / denom));
    }
    return decisions;
  }

 private:
  cost::CostModel model_;
  LabelGenOptions options_;
  ml::Dataset& benefit_;
  ml::Dataset& popularity_;
};

/// The deployed benefit model, with its held-out RMSE, Spearman and
/// top-decile lift.
void fit_benefit(const ml::Dataset& data, const ml::GbdtParams& params,
                 std::uint64_t split_seed, TrainedModels& out) {
  auto [train, valid] = data.split(0.8, split_seed);
  auto model = ml::GbdtModel::train(train, params, &valid);
  if (valid.size() > 1) {
    const auto pred = model.predict_batch(valid);
    out.benefit_rmse = ml::rmse(pred, valid.labels());
    out.benefit_spearman = ml::spearman(pred, valid.labels());

    // Top-decile lift: do the rows the model ranks highest carry most of
    // the true benefit?
    std::vector<std::size_t> order(pred.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return pred[a] > pred[b];
                     });
    const std::size_t top = std::max<std::size_t>(1, order.size() / 10);
    double top_sum = 0.0;
    double all_sum = 0.0;
    for (std::size_t i = 0; i < order.size(); ++i) {
      const double label = valid.label(order[i]);
      all_sum += label;
      if (i < top) top_sum += label;
    }
    const double all_mean = all_sum / static_cast<double>(order.size());
    const double top_mean = top_sum / static_cast<double>(top);
    out.benefit_top_lift = all_mean > 0.0 ? top_mean / all_mean : 0.0;
  }
  out.benefit = std::make_shared<ml::GbdtModel>(std::move(model));
}

/// ML-tree's popularity model, with its held-out RMSE.
void fit_popularity(const ml::Dataset& data, const ml::GbdtParams& params,
                    std::uint64_t split_seed, TrainedModels& out) {
  auto [train, valid] = data.split(0.8, split_seed);
  auto model = ml::GbdtModel::train(train, params, &valid);
  if (valid.size() > 1) {
    const auto pred = model.predict_batch(valid);
    out.popularity_rmse = ml::rmse(pred, valid.labels());
  }
  out.popularity = std::make_shared<ml::GbdtModel>(std::move(model));
}

}  // namespace

LabelGenResult generate_labels(const wl::Trace& trace,
                               const LabelGenOptions& options) {
  if (options.threads != 0 &&
      options.threads != common::analysis_threads()) {
    common::set_analysis_threads(options.threads);
  }
  LabelGenResult out{ml::Dataset(feature_name_vector()),
                     ml::Dataset(feature_name_vector()),
                     {}};
  cost::CostModel model(options.replay.cost_params);
  LabelCollectorBalancer collector(model, options, out.benefit_data,
                                   out.popularity_data);
  out.run = cluster::replay_trace(trace, options.replay, collector);
  return out;
}

TrainedModels train_models(const LabelGenResult& labels,
                           const ml::GbdtParams& params,
                           std::uint64_t split_seed) {
  TrainedModels out;
  // The two fits share no state: each reads only its own dataset and writes
  // only its own fields of `out`, so fitting the benefit model on a second
  // thread gives the serial result. get() rethrows that fit's error; if the
  // popularity fit throws first, the future's destructor waits for the
  // benefit fit before `out` goes away.
  std::future<void> benefit = std::async(std::launch::async, [&] {
    fit_benefit(labels.benefit_data, params, split_seed, out);
  });
  fit_popularity(labels.popularity_data, params, split_seed + 1, out);
  benefit.get();
  return out;
}

common::Status save_models(const TrainedModels& models,
                           const std::string& prefix) {
  if (models.benefit == nullptr || models.popularity == nullptr) {
    return common::Status::invalid_argument("models not trained");
  }
  {
    std::ofstream out(prefix + ".benefit.model");
    if (!out) return common::Status::unavailable("cannot write " + prefix);
    models.benefit->save(out);
  }
  {
    std::ofstream out(prefix + ".popularity.model");
    if (!out) return common::Status::unavailable("cannot write " + prefix);
    models.popularity->save(out);
  }
  return common::Status::ok();
}

common::Result<TrainedModels> load_models(const std::string& prefix) {
  TrainedModels models;
  {
    std::ifstream in(prefix + ".benefit.model");
    if (!in) return common::Status::not_found(prefix + ".benefit.model");
    auto model = ml::GbdtModel::load(in);
    if (model.num_features() == 0) {
      return common::Status::corruption(prefix + ".benefit.model");
    }
    models.benefit = std::make_shared<ml::GbdtModel>(std::move(model));
  }
  {
    std::ifstream in(prefix + ".popularity.model");
    if (!in) return common::Status::not_found(prefix + ".popularity.model");
    auto model = ml::GbdtModel::load(in);
    if (model.num_features() == 0) {
      return common::Status::corruption(prefix + ".popularity.model");
    }
    models.popularity = std::make_shared<ml::GbdtModel>(std::move(model));
  }
  return models;
}

TrainedModels train_from_trace(const wl::Trace& trace,
                               const LabelGenOptions& options,
                               const ml::GbdtParams& params) {
  const LabelGenResult labels = generate_labels(trace, options);
  return train_models(labels, params);
}

}  // namespace origami::core
