// Reproduces Table 1 (§4.3, "Model training"): the training feature schema
// and the Gini-importance (split gain) ranking obtained after training the
// LightGBM-style benefit model on label-generation data pooled from the
// three workloads.
//
// Paper ranking: #sub-files = 1; #write and dir-file-ratio = 2; #sub-dirs
// = 4; #read and read-write-ratio = 6; depth = 7.

#include <cstdio>
#include <numeric>

#include "bench_common.hpp"
#include "origami/common/csv.hpp"
#include "origami/ml/metrics.hpp"

using namespace origami;

int main() {
  std::printf("=== Table 1 — features and Gini-importance ranking ===\n\n");
  const cluster::ReplayOptions opt = bench::paper_options();

  core::LabelGenOptions lg;
  lg.replay = opt;
  lg.meta_opt.min_subtree_ops = 8;
  lg.meta_opt.stop_threshold = sim::micros(500);
  lg.min_feature_ops = 4;

  std::printf("pooling label-generation data from RW + RO + WI...\n");
  auto pooled = core::generate_labels(bench::standard_rw(11), lg);
  for (auto* gen : {&bench::standard_ro, &bench::standard_wi}) {
    const auto more = core::generate_labels((*gen)(12, 300'000), lg);
    pooled.benefit_data.append(more.benefit_data);
    pooled.popularity_data.append(more.popularity_data);
  }
  std::printf("  %zu training rows\n\n", pooled.benefit_data.size());

  ml::GbdtParams params;  // 400 rounds / 32 leaves, the deployed config
  const auto models = core::train_models(pooled, params);
  const auto& importance = models.benefit->feature_importance();
  const auto ranking = models.benefit->importance_ranking();

  // Paper Table 1 GI ranks, index-aligned with core::kFeatureNames.
  constexpr int kPaperRank[core::kFeatureCount] = {7, 1, 4, 6, 2, 6, 2};
  const double total = std::accumulate(importance.begin(), importance.end(), 0.0);

  common::CsvWriter csv = bench::open_csv("table1", "features");
  csv.header({"feature", "type", "normalization", "gain_share", "rank",
              "paper_rank"});
  const char* kType[core::kFeatureCount] = {
      "namespace", "namespace", "namespace", "history",
      "history",   "derived",   "derived"};
  const char* kNorm[core::kFeatureCount] = {
      "by max", "by max", "by max", "by total access", "by total access",
      "raw",    "raw"};

  std::vector<std::size_t> rank_of(core::kFeatureCount);
  for (std::size_t pos = 0; pos < ranking.size(); ++pos) {
    rank_of[ranking[pos]] = pos + 1;
  }

  std::printf("%-16s %-10s %-18s %10s %6s %11s\n", "feature", "type",
              "normalization", "gain", "rank", "paper rank");
  for (std::size_t f = 0; f < core::kFeatureCount; ++f) {
    const double share = total > 0 ? importance[f] / total : 0.0;
    std::printf("%-16s %-10s %-18s %9.1f%% %6zu %11d\n",
                core::kFeatureNames[f], kType[f], kNorm[f], share * 100,
                rank_of[f], kPaperRank[f]);
    csv.field(core::kFeatureNames[f])
        .field(kType[f])
        .field(kNorm[f])
        .field(share)
        .field(static_cast<std::uint64_t>(rank_of[f]))
        .field(static_cast<std::int64_t>(kPaperRank[f]));
    csv.endrow();
  }

  std::printf("\nvalidation: rmse %.4f, spearman %.3f, top-decile lift "
              "%.1fx\n", models.benefit_rmse, models.benefit_spearman,
              models.benefit_top_lift);
  std::printf("\npaper shape: access-volume features (#sub-files, #write) "
              "near the top;\ndepth least informative.\n");
  bench::close_csv(csv);
  return 0;
}
