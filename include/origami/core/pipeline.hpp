#pragma once

#include <memory>

#include "origami/common/status.hpp"

#include "origami/cluster/replay.hpp"
#include "origami/core/balancers.hpp"
#include "origami/core/meta_opt.hpp"
#include "origami/ml/gbdt.hpp"
#include "origami/ml/mlp.hpp"

namespace origami::core {

/// §4.3 label generation: replay the trace with Meta-OPT driving the
/// Migrator; at every epoch boundary emit training rows —
///  * benefit rows: Table-1 features from the *last observed* epoch, label
///    = the Meta-OPT benefit (seconds of JCT) computed on the upcoming
///    window under the current partition;
///  * popularity rows (for the ML-tree baseline): same features, label =
///    the subtree's share of accesses in the upcoming window.
struct LabelGenOptions {
  cluster::ReplayOptions replay;
  MetaOptParams meta_opt;
  /// Skip candidates with fewer observed ops in the feature epoch.
  std::uint64_t min_feature_ops = 8;
  /// Analysis-plane worker threads for window analysis / Meta-OPT scoring /
  /// feature extraction (resizes `common::analysis_pool()`). 0 keeps the
  /// process-wide setting; output is bit-identical at any value.
  std::size_t threads = 0;
};

struct LabelGenResult {
  ml::Dataset benefit_data;
  ml::Dataset popularity_data;
  cluster::RunResult run;
};

LabelGenResult generate_labels(const wl::Trace& trace,
                               const LabelGenOptions& options);

/// Offline model training (§4.3 "Model training") over a label-gen dataset:
/// trains the deployed LightGBM-style benefit model plus the popularity
/// model used by the ML-tree baseline.
struct TrainedModels {
  std::shared_ptr<ml::GbdtModel> benefit;
  std::shared_ptr<ml::GbdtModel> popularity;
  double benefit_rmse = 0.0;      ///< on a held-out split
  double benefit_spearman = 0.0;  ///< rank correlation over all rows
  /// Mean true benefit of the top-decile *predicted* rows divided by the
  /// overall mean — the metric that matters operationally (§4.3: each model
  /// "succeeded in pinpointing subtrees with notably higher migration
  /// benefits", which is all the greedy migrator needs).
  double benefit_top_lift = 0.0;
  double popularity_rmse = 0.0;
};

/// Fits the two models side by side, the benefit model on one extra thread;
/// they share no state, so the result equals two serial fits. An error in
/// either fit is rethrown here.
TrainedModels train_models(const LabelGenResult& labels,
                           const ml::GbdtParams& params = {},
                           std::uint64_t split_seed = 97);

/// Convenience wrapper for benches/examples: label-gen + training in one
/// call, returning models ready to plug into OrigamiBalancer/MlTreeBalancer.
TrainedModels train_from_trace(const wl::Trace& trace,
                               const LabelGenOptions& options,
                               const ml::GbdtParams& params = {});

/// Persists/loads the trained model pair as `<prefix>.benefit.model` and
/// `<prefix>.popularity.model` (text format), so label generation and
/// online serving can run as separate processes (§4.3's offline/online
/// split).
common::Status save_models(const TrainedModels& models,
                           const std::string& prefix);
common::Result<TrainedModels> load_models(const std::string& prefix);

}  // namespace origami::core
