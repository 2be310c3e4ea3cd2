// experiments: regenerates the Origami paper's figures and tables, its
// ablations and its appendices, one preset each (DESIGN.md's experiment
// index). Each preset prints its banner, its rows and the paper's reference
// numbers, and writes its CSVs into the working directory.
//
//   experiments            runs every preset, in the order of kPresets
//   experiments NAME...    runs the named presets, in the order given
//
// Anything else, an unknown name or any flag, prints usage and exits 2
// before a preset runs: every preset is a fixed configuration, so a flag
// could only mislabel its rows. origami_sim is the tool for ad hoc runs.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "table.hpp"
#include "origami/common/histogram.hpp"
#include "origami/common/rng.hpp"
#include "origami/common/zipf.hpp"
#include "origami/core/meta_opt.hpp"
#include "origami/fault/fault.hpp"
#include "origami/fs/live_replay.hpp"
#include "origami/ml/metrics.hpp"
#include "origami/ml/mlp.hpp"
#include "origami/policy/registry.hpp"
#include "origami/recovery/invariants.hpp"

namespace origami::bench {
namespace {

/// The models most presets replay ml-tree and origami with: trained on
/// Trace-RW seed 99 under the paper's options, once per process.
const core::TrainedModels& rw_models() {
  static const core::TrainedModels models =
      train_for(standard_rw(/*seed=*/99), paper_options());
  return models;
}

// ==== The paper's evaluation: Figs. 2, 5-9, Tables 1-2 ====================

// Reproduces Figure 2 (§2.2, "Even Partitioning Considered Harmful"):
// a web-access workload replayed on (a) one MDS and (b) five MDSs with
// even per-directory partitioning. Reports the per-MDS and aggregated
// throughput normalised to the single-MDS setup, and the job completion
// time of both configurations.
//
// Paper shape to match: every individual MDS of the 5-MDS cluster runs
// *below* the single-MDS line; the aggregate gains only ~1.4x; JCT drops
// far less than the 5x hardware would suggest.
int fig2_motivation() {
  const wl::Trace trace = wl::make_trace_web_motivation(7, 300'000);
  const cluster::ReplayOptions opt = paper_options();

  // (a) single MDS.
  const auto r1 = run_policy("single", trace, opt, nullptr);
  // (b) five MDSs, even per-directory partitioning (CephFS-pinning style).
  const auto r5 = run_policy("f-hash", trace, opt, nullptr);
  const double single_tput = r1.steady_throughput_ops;

  std::printf("(a) per-MDS throughput, normalised to the single-MDS setup\n");
  Table tput("fig2", "throughput",
             {{"epoch", 0, 6}, {"m1", 2, 6}, {"m2", 2, 6}, {"m3", 2, 6},
              {"m4", 2, 6}, {"m5", 2, 6}, {"aggregate", 2}});
  for (std::size_t e = 0; e < r5.epochs.size(); ++e) {
    const auto& em = r5.epochs[e];
    const double secs = sim::to_seconds(em.end - em.start);
    if (secs <= 0) continue;
    std::vector<Table::Value> row{e};
    double agg = 0;
    for (const auto& m : em.mds) {
      const double norm = static_cast<double>(m.ops) / secs / single_tput;
      agg += norm;
      row.emplace_back(norm);
    }
    row.emplace_back(agg);
    tput.row(row);
  }
  std::printf("\naggregate gain from adding 4 MDSs: %.2fx  (paper: ~1.4x)\n",
              r5.steady_throughput_ops / single_tput);

  std::printf("\n(b) job completion time for the full trace\n");
  Table jct("fig2", "jct", {{"config", 0, 9}, {"jct_seconds", 2}});
  jct.row({"1mds", sim::to_seconds(r1.makespan)});
  jct.row({"5mds_even", sim::to_seconds(r5.makespan)});
  std::printf("5 MDSs cut JCT by %.0f%%; ideal would be 80%%\n",
              100.0 * (1.0 - sim::to_seconds(r5.makespan) /
                                 sim::to_seconds(r1.makespan)));
  std::printf("\nper-request forwarding in (b): %.2f RPCs/request — the "
              "execution overhead\nthat caps each MDS below the single-MDS "
              "line (§2.2).\n", r5.rpc_per_request);
  return 0;
}

// Reproduces Figure 5 (§5.2, "Overall Performance") on Trace-RW:
//  (a) aggregate metadata throughput with 50 clients saturating 5 MDSs,
//  (b) average operation latency with a single client thread.
//
// Paper shape: throughput origami > c-hash > ml-tree > f-hash > single
// (3.86x / 2.23x / 1.89x / ~1.54x of single); latency single < origami
// (+24.2%) < ml-tree (+29.3%) < c-hash (+43.9%) < f-hash (+89.1%).
int fig5_overall() {
  const wl::Trace trace = standard_rw(/*seed=*/1);
  const cluster::ReplayOptions opt = paper_options();
  const auto& models = rw_models();

  Table t("fig5", "overall",
          {{"strategy", 0, 10}, {"agg_throughput_ops", 0},
           {"speedup_vs_single", 2}, {"latency_1client_us", 1},
           {"latency_increase_pct", 1}, {"rpc_per_req", 3}});
  double single_tput = 0.0;
  double single_lat = 0.0;
  for (const std::string spec : kPaperPolicies) {
    // (a) saturated throughput.
    const auto hot = run_policy(spec, trace, opt, &models);
    // (b) single-client latency over the converged partition (the paper
    // re-runs with one thread after rebalancing has settled).
    const auto cold = run_latency_probe(trace, opt, hot);
    if (spec == "single") {
      single_tput = hot.steady_throughput_ops;
      single_lat = cold.mean_latency_us;
    }
    t.row({hot.balancer_name, hot.steady_throughput_ops,
           hot.steady_throughput_ops / single_tput, cold.mean_latency_us,
           100.0 * (cold.mean_latency_us / single_lat - 1.0),
           hot.rpc_per_request});
  }

  std::printf("\npaper reference (Fig. 5): single 19.4k/s; c-hash 2.23x; "
              "f-hash -31%% vs c-hash;\nml-tree 1.89x; origami 3.86x. "
              "Latency: +43.9%% / +89.1%% / +29.3%% / +24.2%%.\n");
  return 0;
}

// Reproduces Figure 6 (§5.3, "Balance Analysis"): the imbalance factor of
// the four strategies across four metrics — QPS, RPCs, Inodes, BusyTime
// (lower = more even; 1 means everything on one MDS).
//
// Paper shape: f-hash is the most even on QPS/RPC/Inodes (but only a
// little better than c-hash); ml-tree has the *worst* BusyTime balance;
// origami's BusyTime imbalance is the lowest (-48.3% vs f-hash) — all
// MDSs stay busy even though its inode placement is uneven.
int fig6_imbalance() {
  const wl::Trace trace = standard_rw(/*seed=*/1);
  const cluster::ReplayOptions opt = paper_options();
  const auto& models = rw_models();

  Table t("fig6", "imbalance",
          {{"strategy", 0, 10}, {"if_qps", 2}, {"if_rpc", 2},
           {"if_inodes", 2}, {"if_busytime", 2}});
  double fhash_busy = 0.0;
  double origami_busy = 0.0;
  for (const std::string spec :
       {"c-hash", "f-hash", "ml-tree:min-ops=8", "origami"}) {
    const auto r = run_policy(spec, trace, opt, &models);
    t.row({r.balancer_name, r.imf_qps, r.imf_rpc, r.imf_inodes, r.imf_busy});
    if (spec == "f-hash") fhash_busy = r.imf_busy;
    if (spec == "origami") origami_busy = r.imf_busy;
  }

  std::printf("\norigami BusyTime imbalance vs f-hash: %+.1f%%  "
              "(paper: -48.3%%)\n",
              100.0 * (origami_busy / fhash_busy - 1.0));
  std::printf("\npaper shape: f-hash most even on QPS/RPC/Inodes; origami "
              "lowest on BusyTime;\nml-tree highest on BusyTime (idle MDSs "
              "from conservative migration).\n");
  return 0;
}

// Reproduces Figure 7 (§5.5, "Higher Efficiency"): per-MDS efficiency —
// the fraction of time spent actually processing metadata, normalised to
// the single-MDS setup — over the first minutes of each strategy.
//
// Paper shape: hash strategies run parallel from the start but at clearly
// sub-single efficiency (forwarded-RPC work); ml-tree pays visible extra
// overhead while rebalancing; origami ramps up while keeping the
// per-MDS efficiency dip minimal.
int fig7_efficiency() {
  // Loop a 300k-op trace for 3 simulated minutes (the paper's testbed ran
  // 15 wall-clock minutes; virtual time scales freely — shape preserved).
  const wl::Trace trace = standard_rw(/*seed=*/1);
  cluster::ReplayOptions opt = paper_options();
  opt.loop_trace = true;
  opt.time_limit = sim::seconds(180);
  opt.epoch_length = sim::seconds(5);
  opt.warmup_epochs = 2;
  const auto& models = rw_models();

  // Baseline: the useful-work rate of one saturated MDS. "Efficiency" is
  // each strategy's per-MDS *served-op* rate relative to this — capacity
  // burned on forwarded RPCs or migration transfers does not count as
  // useful work (that is exactly the §5.5 distinction).
  const auto r1 = run_policy("single", trace, opt, nullptr);
  double single_rate = 0.0;
  std::size_t n1 = 0;
  for (std::size_t e = 1; e + 1 < r1.epochs.size(); ++e) {
    const auto& em = r1.epochs[e];
    const double span = sim::to_seconds(em.end - em.start);
    if (span <= 0 || em.mds[0].ops == 0) continue;
    single_rate += static_cast<double>(em.mds[0].ops) / span;
    ++n1;
  }
  single_rate /= static_cast<double>(n1);
  std::printf("single-MDS useful rate baseline: %.0f ops/s\n\n", single_rate);

  Table t("fig7", "efficiency",
          {{"strategy", 0, 10}, {"t_seconds", 0}, {"efficiency", 2}});
  for (const char* spec :
       {"c-hash", "f-hash", "ml-tree:min-ops=8", "origami"}) {
    const auto r = run_policy(spec, trace, opt, &models);
    for (const auto& em : r.epochs) {
      if (em.end <= em.start) continue;
      // Mean per-MDS served-op rate, normalised to the single-MDS rate.
      double ops = 0.0;
      for (const auto& m : em.mds) ops += static_cast<double>(m.ops);
      const double rate = ops / sim::to_seconds(em.end - em.start) /
                          static_cast<double>(em.mds.size());
      t.row({r.balancer_name, sim::to_seconds(em.end), rate / single_rate});
    }
  }

  std::printf("\npaper shape: hash methods flat below 1.0; origami "
              "approaches 1.0 after its\nfirst migrations with only a small "
              "transient dip; ml-tree dips deeper/longer.\n");
  return 0;
}

// Reproduces Figure 8 (§5.5, "Better Scalability"): aggregate throughput
// as the MDS count grows from 2 to 5, normalised to one MDS.
//
// Paper shape: none of the baselines scales cleanly; origami is the top
// curve and near-linear (≈2.7x at 3 MDSs), flattening slightly at 4-5.
int fig8_scalability() {
  const wl::Trace trace = standard_rw(/*seed=*/1);
  const cluster::ReplayOptions base = paper_options();
  const auto& models = rw_models();

  const double single =
      run_policy("single", trace, base, nullptr).steady_throughput_ops;
  std::printf("1-MDS baseline: %.0f ops/s\n\n", single);

  Table t("fig8", "scalability",
          {{"strategy", 0, 10}, {"mds"}, {"speedup", 2}});
  for (const char* spec :
       {"c-hash", "f-hash", "ml-tree:min-ops=8", "origami"}) {
    for (std::uint32_t mds = 2; mds <= 5; ++mds) {
      cluster::ReplayOptions opt = base;
      opt.mds_count = mds;
      const auto r = run_policy(spec, trace, opt, &models);
      t.row({r.balancer_name, mds, r.steady_throughput_ops / single});
    }
  }

  std::printf("\npaper shape: origami near-linear (3 MDS ~2.7x); baselines "
              "flatten as balance\nand locality trade off against each "
              "other.\n");
  return 0;
}

// Reproduces Figure 9 (§5.6, "Real-world Workload Results"): aggregate
// throughput for the three real-world-style traces (Read-Write, Read-Only,
// Write-Intensive), first metadata-only (Fig. 9a), then with the data path
// enabled (Fig. 9b, end-to-end).
//
// Paper shape: origami wins every trace; largest margin on RW (+73.3% over
// the runner-up), smallest on WI (+12.5%, the hardest trace to balance);
// end-to-end throughput sits below metadata-only throughput.
int fig9_realworld() {
  const cluster::ReplayOptions base = paper_options();
  cluster::ReplayOptions data_opt = base;
  data_opt.data_path = true;
  // A deliberately tight data tier (the paper notes production would
  // provision more): 5 servers x 4 slots at ~0.5 ms/request.
  data_opt.data_params.slots_per_server = 4;
  data_opt.data_params.base_latency = sim::micros(500);
  data_opt.data_params.bytes_per_second = 6e8;

  struct Workload {
    const char* name;
    wl::Trace (*make)(std::uint64_t seed, std::uint64_t ops);
  };
  const Workload workloads[] = {{"Trace-RW", &standard_rw},
                                {"Trace-RO", &standard_ro},
                                {"Trace-WI", &standard_wi}};

  Table t("fig9", "realworld",
          {{"trace", 0, 8}, {"strategy", 0, 10}, {"meta_throughput_ops", 0},
           {"e2e_throughput_ops", 0}});
  for (const Workload& w : workloads) {
    const wl::Trace eval = w.make(/*seed=*/1, 300'000);
    // Per-family model, trained on a different seed of the same family.
    const auto models = train_for(w.make(/*seed=*/99, 300'000), base);
    double best_meta_baseline = 0.0;
    double origami_meta = 0.0;
    for (const std::string spec : kPaperPolicies) {
      const auto meta = run_policy(spec, eval, base, &models);
      const auto e2e = run_policy(spec, eval, data_opt, &models);
      t.row({w.name, meta.balancer_name, meta.steady_throughput_ops,
             e2e.steady_throughput_ops});
      if (spec == "origami") {
        origami_meta = meta.steady_throughput_ops;
      } else if (spec != "single") {
        best_meta_baseline =
            std::max(best_meta_baseline, meta.steady_throughput_ops);
      }
    }
    std::printf("%s: origami vs best baseline (metadata): %+.1f%%\n",
                w.name, 100.0 * (origami_meta / best_meta_baseline - 1.0));
  }

  std::printf("\npaper reference: origami beats the 2nd-best baseline by "
              "73.3%% (RW), 54.3%% (RO),\n12.5%% (WI) on metadata; 1.11-1.37x "
              "end-to-end; WI is hardest (drifting hotspots).\n");
  return 0;
}

// Reproduces Table 1 (§4.3, "Model training"): the training feature schema
// and the Gini-importance (split gain) ranking obtained after training the
// LightGBM-style benefit model on label-generation data pooled from the
// three workloads.
//
// Paper ranking: #sub-files = 1; #write and dir-file-ratio = 2; #sub-dirs
// = 4; #read and read-write-ratio = 6; depth = 7.
int table1_features() {
  const core::LabelGenOptions lg = label_options(paper_options());

  std::printf("pooling label-generation data from RW + RO + WI...\n");
  auto pooled = core::generate_labels(standard_rw(11), lg);
  for (auto* gen : {&standard_ro, &standard_wi}) {
    const auto more = core::generate_labels((*gen)(12, 300'000), lg);
    pooled.benefit_data.append(more.benefit_data);
    pooled.popularity_data.append(more.popularity_data);
  }
  std::printf("  %zu training rows\n\n", pooled.benefit_data.size());

  ml::GbdtParams params;  // 400 rounds / 32 leaves, the deployed config
  const auto models = core::train_models(pooled, params);
  const auto& importance = models.benefit->feature_importance();
  const auto ranking = models.benefit->importance_ranking();
  const double total =
      std::accumulate(importance.begin(), importance.end(), 0.0);
  std::vector<std::size_t> rank_of(core::kFeatureCount);
  for (std::size_t pos = 0; pos < ranking.size(); ++pos) {
    rank_of[ranking[pos]] = pos + 1;
  }

  // Paper Table 1 GI ranks, index-aligned with core::kFeatureNames.
  constexpr int kPaperRank[core::kFeatureCount] = {7, 1, 4, 6, 2, 6, 2};
  const char* kType[core::kFeatureCount] = {
      "namespace", "namespace", "namespace", "history",
      "history",   "derived",   "derived"};
  const char* kNorm[core::kFeatureCount] = {
      "by max", "by max", "by max", "by total access", "by total access",
      "raw",    "raw"};
  Table t("table1", "features",
          {{"feature", 0, 16}, {"type", 0, 9}, {"normalization", 0, 15},
           {"gain_share", 3}, {"rank"}, {"paper_rank"}});
  for (std::size_t f = 0; f < core::kFeatureCount; ++f) {
    t.row({core::kFeatureNames[f], kType[f], kNorm[f],
           total > 0 ? importance[f] / total : 0.0, rank_of[f],
           kPaperRank[f]});
  }

  std::printf("\nvalidation: rmse %.4f, spearman %.3f, top-decile lift "
              "%.1fx\n", models.benefit_rmse, models.benefit_spearman,
              models.benefit_top_lift);
  std::printf("\npaper shape: access-volume features (#sub-files, #write) "
              "near the top;\ndepth least informative.\n");
  return 0;
}

// Reproduces Table 2 (§5.4, "Metadata Cache Analysis"): aggregated
// throughput and per-request RPC count for the four balancing strategies,
// with and without the near-root metadata cache. Runs three seeds per cell
// and reports mean ± stddev, as the paper does.
//
// Paper shape: the cache helps everyone; origami gains the most (+100.7%)
// and its with-cache RPC/request is lowest (1.04, i.e. +0.035 extra RPC),
// because most of its migrations land inside the cached near-root region.
int table2_cache() {
  const cluster::ReplayOptions base = paper_options();
  const auto& models = rw_models();
  const wl::Trace traces[] = {standard_rw(1, 200'000),
                              standard_rw(21, 200'000),
                              standard_rw(41, 200'000)};

  Table t("table2", "cache",
          {{"strategy", 0, 10}, {"tput_nocache_k", 1}, {"tput_nocache_sd", 1},
           {"tput_cache_k", 1}, {"tput_cache_sd", 1}, {"rpc_nocache", 2},
           {"rpc_nocache_sd", 2}, {"rpc_cache", 2}, {"rpc_cache_sd", 2}});
  for (const char* spec :
       {"c-hash", "f-hash", "ml-tree:min-ops=8", "origami"}) {
    common::WelfordStats tput[2];  // [cache off/on], k ops/s
    common::WelfordStats rpc[2];
    std::string name;
    for (int cache = 0; cache <= 1; ++cache) {
      for (const wl::Trace& trace : traces) {
        cluster::ReplayOptions opt = base;
        opt.cache_enabled = cache == 1;
        const auto r = run_policy(spec, trace, opt, &models);
        name = r.balancer_name;
        tput[cache].add(r.steady_throughput_ops / 1000.0);
        rpc[cache].add(r.rpc_per_request);
      }
    }
    t.row({name, tput[0].mean(), tput[0].stddev(), tput[1].mean(),
           tput[1].stddev(), rpc[0].mean(), rpc[0].stddev(), rpc[1].mean(),
           rpc[1].stddev()});
  }

  std::printf("\npaper reference (Table 2):\n"
              "  c-hash  32.8->46.0k, 2.23->1.54 RPC\n"
              "  f-hash  22.5->30.0k, 2.87->2.27 RPC\n"
              "  ml-tree 26.7->38.6k, 1.62->1.17 RPC\n"
              "  origami 39.3->78.9k, 1.85->1.04 RPC\n");
  return 0;
}

// ==== Design-choice ablations ============================================

/// The Meta-OPT oracle the sweeps run, as a registry spec: the small
/// traces' thresholds, then `params` (",key=value...").
std::string meta_opt(const std::string& params = "") {
  return "meta-opt:min-ops=8,stop-us=500" + params;
}

/// ",key=value" as %g writes the value, which reads back as the same
/// double for the short decimals the sweeps use.
std::string param(const char* key, double value) {
  char text[64];
  std::snprintf(text, sizeof(text), ",%s=%g", key, value);
  return text;
}

std::set<std::size_t> top_k(const std::vector<double>& pred, std::size_t k) {
  std::vector<std::size_t> order(pred.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return pred[a] > pred[b]; });
  return {order.begin(), order.begin() + static_cast<std::ptrdiff_t>(
                                             std::min(k, order.size()))};
}

double overlap(const std::set<std::size_t>& a, const std::set<std::size_t>& b) {
  std::size_t inter = 0;
  for (std::size_t x : a) inter += b.count(x);
  return static_cast<double>(inter) / static_cast<double>(a.size());
}

// Ablation (§4.3, "Model training"): LightGBM-style leaf-wise GBDT vs
// classic level-wise GBDT vs a 4-hidden-layer MLP, trained on the same
// label-generation data.
//
// Paper claim to verify: despite accuracy differences, the three models
// produce remarkably similar *migration decisions*, because each pinpoints
// the subtrees with notably higher benefit and the migration algorithm
// filters the rest. We measure (1) validation accuracy, (2) top-K
// candidate-ranking overlap between models, (3) end-to-end throughput when
// each model drives OrigamiBalancer.
int ablation_models() {
  const cluster::ReplayOptions opt = paper_options();
  const core::LabelGenOptions lg = label_options(opt);
  auto labels = core::generate_labels(standard_rw(99), lg);
  const auto more = core::generate_labels(standard_rw(55), lg);
  labels.benefit_data.append(more.benefit_data);
  auto [train, valid] = labels.benefit_data.split(0.8, 7);
  std::printf("%zu train rows / %zu validation rows\n\n", train.size(),
              valid.size());

  // Every family serves OrigamiBalancer through the model-agnostic
  // BenefitPredictor interface.
  struct Family {
    const char* name;
    core::BenefitPredictor predictor;
    std::vector<double> preds;  ///< on the validation rows
  };
  std::vector<Family> families;
  const auto add = [&](const char* name, const auto& model) {
    families.push_back(
        {name, [model](std::span<const float> x) { return model->predict(x); },
         model->predict_batch(valid)});
  };
  ml::GbdtParams lgbm_params;  // leaf-wise, 400 rounds, 32 leaves
  lgbm_params.early_stopping_rounds = 30;
  add("lightgbm", std::make_shared<ml::GbdtModel>(
                      ml::GbdtModel::train(train, lgbm_params, &valid)));
  ml::GbdtParams gbdt_params = lgbm_params;
  gbdt_params.leaf_wise = false;
  add("gbdt", std::make_shared<ml::GbdtModel>(
                  ml::GbdtModel::train(train, gbdt_params, &valid)));
  ml::MlpParams mlp_params;
  mlp_params.epochs = 40;
  add("mlp", std::make_shared<ml::MlpModel>(
                 ml::MlpModel::train(train, mlp_params)));

  const std::size_t k = std::max<std::size_t>(5, valid.size() / 10);
  std::printf("top-%zu candidate overlap (decision agreement):\n", k);
  for (std::size_t i = 0; i < families.size(); ++i) {
    for (std::size_t j = i + 1; j < families.size(); ++j) {
      std::printf("  %-8s vs %-4s: %.0f%%\n", families[i].name,
                  families[j].name,
                  100 * overlap(top_k(families[i].preds, k),
                                top_k(families[j].preds, k)));
    }
  }

  // End-to-end: each model drives OrigamiBalancer on an unseen run.
  const wl::Trace eval = standard_rw(1);
  core::OrigamiBalancer::Params ob;
  ob.min_subtree_ops = 8;
  const cost::CostModel cm(opt.cost_params);
  std::printf("\naccuracy and end-to-end throughput with each model serving "
              "online:\n");
  Table t("ablation_models", "results",
          {{"model", 0, 8}, {"rmse", 4}, {"spearman", 3},
           {"throughput_ops", 0}});
  for (const Family& f : families) {
    core::OrigamiBalancer balancer(f.predictor, cm, ob,
                                   core::RebalanceTrigger{0.05});
    const auto r = cluster::replay_trace(eval, opt, balancer);
    t.row({f.name, ml::rmse(f.preds, valid.labels()),
           ml::spearman(f.preds, valid.labels()), r.steady_throughput_ops});
  }

  std::printf("\npaper shape: accuracies differ slightly; decisions and "
              "end-to-end results nearly\nidentical -> deploy the cheapest "
              "model (LightGBM-style).\n");
  return 0;
}

// Ablation: the Δ imbalance guard of Algorithm 1 (line 9 / Theorem 1).
// Sweeps Δ and reports oracle-balancer throughput, migrations and the
// busy-time imbalance factor: too-small Δ forbids useful moves; too-large
// Δ admits over-corrections (ping-pong migrations).
int ablation_delta() {
  const wl::Trace trace = standard_rw(/*seed=*/1);
  const cluster::ReplayOptions opt = paper_options();

  Table t("ablation_delta", "sweep",
          {{"delta_ms", 0}, {"throughput_ops", 0}, {"migrations"},
           {"if_busy", 2}, {"rpc_per_req", 3}});
  for (double delta_ms : {1.0, 10.0, 100.0, 400.0, 800.0, 2000.0, 8000.0}) {
    const auto r = run_policy(meta_opt(param("delta-ms", delta_ms)), trace,
                              opt, nullptr);
    t.row({delta_ms, r.steady_throughput_ops, r.migrations, r.imf_busy,
           r.rpc_per_request});
  }

  std::printf("\nexpected: a broad plateau at moderate Δ; degradation at "
              "the extremes.\n");
  return 0;
}

// Ablation: epoch length (the paper fixes it at 10 s, footnote 2). Shorter
// epochs react faster to hotspot drift but rebalance on noisier statistics
// and migrate more; longer epochs lag the workload.
//
// Runs the oracle balancer on the *write-intensive* trace, whose drifting
// hotspots make epoch length matter most (§5.6).
int ablation_epoch() {
  const wl::Trace trace = standard_wi(/*seed=*/1);

  Table t("ablation_epoch", "sweep",
          {{"epoch_ms", 0}, {"throughput_ops", 0}, {"migrations"},
           {"if_busy", 2}});
  for (double epoch_ms : {125.0, 250.0, 500.0, 1000.0, 2000.0, 4000.0}) {
    cluster::ReplayOptions opt = paper_options();
    opt.epoch_length = sim::millis(epoch_ms);
    // Keep the warm-up *duration* comparable across epoch lengths.
    opt.warmup_epochs =
        static_cast<std::uint32_t>(std::max(1.0, 2000.0 / epoch_ms));
    const auto r = run_policy(meta_opt(), trace, opt, nullptr);
    t.row({epoch_ms, r.steady_throughput_ops, r.migrations, r.imf_busy});
  }

  std::printf("\nexpected: mid-range epochs win; very long epochs cannot "
              "track the drifting\nhot tenants of Trace-WI.\n");
  return 0;
}

// Ablation: the near-root cache depth threshold (§4.2). Depth 0 disables
// the cache; deeper thresholds absorb more of the resolution path (and
// more migration boundaries) at the cost of caching a larger share of the
// namespace — the paper argues depth thresholds covering <1% of metadata
// already solve the near-root hotspot.
int ablation_cache_depth() {
  const wl::Trace trace = standard_ro(/*seed=*/1);

  // Share of the namespace that falls under each threshold.
  std::vector<std::uint64_t> dirs_at_depth(32, 0);
  for (fsns::NodeId d : trace.tree.directories()) {
    ++dirs_at_depth[std::min<std::uint32_t>(31, trace.tree.depth(d))];
  }

  Table t("ablation_cache_depth", "sweep",
          {{"depth"}, {"cached_namespace_pct", 2}, {"throughput_ops", 0},
           {"rpc_per_req", 3}, {"stale_hits"}});
  for (std::uint32_t depth : {0u, 1u, 2u, 3u, 4u, 6u, 8u}) {
    cluster::ReplayOptions opt = paper_options();
    opt.cache_enabled = depth > 0;
    opt.cache_depth = depth;
    // The oracle costs resolution as `opt` caches it.
    const auto r = run_policy(meta_opt(), trace, opt, nullptr);

    std::uint64_t cached_dirs = 0;
    for (std::uint32_t d = 0; d < depth && d < dirs_at_depth.size(); ++d) {
      cached_dirs += dirs_at_depth[d];
    }
    const double cached_pct = 100.0 * static_cast<double>(cached_dirs) /
                              static_cast<double>(trace.tree.dir_count());
    t.row({depth, cached_pct, r.steady_throughput_ops, r.rpc_per_request,
           r.cache.stale});
  }

  std::printf("\nexpected: a small threshold already removes the near-root "
              "hotspot (the paper's\n<1%% claim); returns diminish quickly "
              "beyond that.\n");
  return 0;
}

/// A namespace with `n` sibling subtrees under /root, with random loads.
struct Instance {
  fsns::DirTree tree;
  std::vector<fsns::NodeId> subtrees;
  std::vector<wl::MetaOp> ops;
};

Instance make_instance(common::Xoshiro256& rng, int subtrees, int files_each,
                       std::uint64_t ops_total) {
  Instance inst;
  std::vector<std::vector<fsns::NodeId>> files(subtrees);
  for (int i = 0; i < subtrees; ++i) {
    const fsns::NodeId d =
        inst.tree.add_dir(fsns::kRootNode, "s" + std::to_string(i));
    inst.subtrees.push_back(d);
    for (int f = 0; f < files_each; ++f) {
      files[static_cast<std::size_t>(i)].push_back(
          inst.tree.add_file(d, "f" + std::to_string(f)));
    }
  }
  inst.tree.finalize();
  // Random weights per subtree.
  std::vector<double> weights(static_cast<std::size_t>(subtrees));
  for (auto& w : weights) w = rng.uniform_double() + 0.05;
  common::AliasTable pick(weights);
  for (std::uint64_t i = 0; i < ops_total; ++i) {
    const std::size_t s = pick(rng);
    inst.ops.push_back({fsns::OpType::kStat,
                        files[s][rng.uniform(files[s].size())],
                        fsns::kInvalidNode, 0});
  }
  return inst;
}

sim::SimTime jct_of(const Instance& inst, const mds::PartitionMap& map,
                    const cost::CostModel& model) {
  return core::evaluate_window(inst.ops, inst.tree, map, model, true, 2).jct();
}

// Ablation: Algorithm 1 itself.
//  (1) Greedy vs exhaustive enumeration on small namespaces — measures the
//      empirical sub-optimality gap that Theorem 1 bounds by Δ.
//  (2) Search-cost scaling with the candidate pool size.
int ablation_metaopt() {
  const cost::CostModel model;
  common::Xoshiro256 rng(2024);

  // ---- (1) sub-optimality gap on exhaustively-solvable instances --------
  constexpr int kInstances = 30;
  constexpr int kSubtrees = 8;  // 2^8 subsets — exhaustively enumerable
  std::printf("(1) %d random 8-subtree instances, 2 MDSs:\n", kInstances);
  Table gap("ablation_metaopt", "gap",
            {{"instance"}, {"jct_base_ms", 3}, {"jct_greedy_ms", 3},
             {"jct_optimal_ms", 3}, {"gap_pct", 2}});
  double worst_gap = 0.0;
  for (int i = 0; i < kInstances; ++i) {
    Instance inst = make_instance(rng, kSubtrees, 10, 4000);
    mds::PartitionMap map(inst.tree, 2);

    core::MetaOptParams p;
    p.min_subtree_ops = 1;
    p.stop_threshold = sim::micros(100);
    core::MetaOpt engine(model, p);
    auto decisions = engine.optimize(inst.ops, inst.tree, map);
    mds::PartitionMap greedy = map;
    for (const auto& d : decisions) greedy.migrate(d.subtree, d.from, d.to);
    const sim::SimTime jct_greedy = jct_of(inst, greedy, model);

    // Exhaustive: every subset of subtrees moved to MDS 1.
    const sim::SimTime jct_base = jct_of(inst, map, model);
    sim::SimTime jct_best = jct_base;
    for (unsigned mask = 1; mask < (1u << kSubtrees); ++mask) {
      mds::PartitionMap alt = map;
      for (int s = 0; s < kSubtrees; ++s) {
        if (mask & (1u << s)) {
          alt.migrate(inst.subtrees[static_cast<std::size_t>(s)], 0, 1);
        }
      }
      jct_best = std::min(jct_best, jct_of(inst, alt, model));
    }
    const double gap_pct =
        100.0 * static_cast<double>(jct_greedy - jct_best) /
        static_cast<double>(jct_best);
    worst_gap = std::max(worst_gap, gap_pct);
    gap.row({i, static_cast<double>(jct_base) / 1e6,
             static_cast<double>(jct_greedy) / 1e6,
             static_cast<double>(jct_best) / 1e6, gap_pct});
  }
  std::printf("    worst greedy-vs-optimal JCT gap: %.2f%%  (Theorem 1 "
              "bounds the benefit gap by Δ)\n\n",
              worst_gap);

  // ---- (2) search-cost scaling ------------------------------------------
  std::printf("(2) Algorithm-1 wall time vs candidate-pool size "
              "(5 MDSs, 60k-op window):\n");
  Table scale("ablation_metaopt", "scaling", {{"candidates"}, {"millis", 1}});
  const wl::Trace trace = standard_rw(1, 60'000);
  mds::PartitionMap map(trace.tree, 5);
  for (std::size_t cands : {64u, 256u, 1024u, 4096u}) {
    core::MetaOptParams p;
    p.min_subtree_ops = 1;
    p.max_candidates = cands;
    core::MetaOpt engine(model, p);
    const auto t0 = std::chrono::steady_clock::now();
    (void)engine.optimize(trace.ops, trace.tree, map);
    const auto ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    scale.row({cands, ms});
  }
  std::printf("\nexpected: near-zero optimality gap on separable instances; "
              "sub-second searches\neven at the full candidate pool (the "
              "\"quickly explore\" claim of the abstract).\n");
  return 0;
}

// Ablation: per-RPC handling cost (t_rpc_handle). The paper's central
// tension — locality vs balance — hinges on how expensive forwarded RPCs
// are. This sweep shows the crossover: with cheap RPCs, fine-grained
// hashing's balance wins; as RPC handling grows toward realistic values,
// locality-preserving strategies take over, and origami stays on top by
// avoiding forwarding altogether.
int ablation_rpc_cost() {
  const wl::Trace trace = standard_rw(/*seed=*/1);

  Table t("ablation_rpc_cost", "sweep",
          {{"t_rpc_us", 0}, {"strategy", 0, 8}, {"throughput_ops", 0}});
  for (double rpc_us : {10.0, 25.0, 50.0, 100.0, 200.0}) {
    cluster::ReplayOptions opt = paper_options();
    opt.cost_params.t_rpc_handle = sim::micros(rpc_us);
    const auto models = train_for(standard_rw(/*seed=*/99), opt);
    for (const char* spec : {"single", "c-hash", "f-hash", "origami"}) {
      const auto r = run_policy(spec, trace, opt, &models);
      t.row({rpc_us, spec, r.steady_throughput_ops});
    }
  }

  std::printf("\nexpected: at very cheap RPCs forwarding is nearly free and "
              "hashing is competitive\n(the cluster turns client-limited); "
              "from ~25 us upward origami leads because its\nRPC/request "
              "stays near 1 while the hash baselines burn capacity on "
              "forwarding.\n");
  return 0;
}

// Ablation: the oracle's lookahead window (the known future sequence N of
// Algorithm 1). Short windows see too little load to identify subtrees
// worth moving; beyond a point, more future buys nothing because the
// workload's hotspot dwell time bounds useful foresight.
int ablation_lookahead() {
  const wl::Trace trace = standard_rw(/*seed=*/1);

  Table t("ablation_lookahead", "sweep",
          {{"lookahead_ops"}, {"throughput_ops", 0}, {"migrations"}});
  for (std::uint64_t window : {2'000ULL, 8'000ULL, 20'000ULL, 60'000ULL,
                               120'000ULL, 240'000ULL}) {
    cluster::ReplayOptions opt = paper_options();
    opt.lookahead_ops = window;
    const auto r = run_policy(meta_opt(), trace, opt, nullptr);
    t.row({window, r.steady_throughput_ops, r.migrations});
  }

  std::printf("\nexpected: throughput rises with foresight and saturates "
              "once the window covers\na hotspot dwell period.\n");
  return 0;
}

// Ablation: the Lunule-style rebalance trigger. Sweeps the imbalance
// threshold and compares the raw per-epoch trigger against the smoothed
// variant (EWMA + patience) on the drifting write-intensive trace.
// Too-sensitive triggers chase noise with migration churn; too-lazy ones
// leave imbalance standing.
int ablation_trigger() {
  const wl::Trace trace = standard_wi(/*seed=*/1);
  const cluster::ReplayOptions opt = paper_options();

  Table t("ablation_trigger", "sweep",
          {{"variant", 0, 13}, {"threshold", 2}, {"throughput_ops", 0},
           {"migrations"}});
  for (double threshold : {0.01, 0.05, 0.15, 0.30, 0.60}) {
    const std::string trigger = param("trigger", threshold);
    const auto raw = run_policy(meta_opt(trigger), trace, opt, nullptr);
    t.row({"raw", threshold, raw.steady_throughput_ops, raw.migrations});
    const auto smoothed = run_policy(
        meta_opt(trigger + ",alpha=0.5,patience=2"), trace, opt, nullptr);
    t.row({"ewma+patience", threshold, smoothed.steady_throughput_ops,
           smoothed.migrations});
  }

  std::printf("\nexpected: a broad sweet spot at small-but-nonzero "
              "thresholds; smoothing trades a\nlittle reaction speed for "
              "fewer churn migrations at sensitive thresholds.\n");
  return 0;
}

// ==== Beyond the paper ====================================================

// Beyond-paper Figure 10 — graceful degradation under faults.
//
// Replays Trace-RW for every §5.1 strategy under an *identical* seeded fault
// schedule (fail-stop crashes, straggler windows, RPC loss) and reports how
// each balancer degrades: completion-time percentiles, retries, failed
// operations, and failover volume. The crash/straggler windows are keyed by
// (fault seed, epoch, MDS), so every strategy faces exactly the same outages
// at the same instants; only the partition each outage hits differs.
//
// A second pass with every fault probability at zero is emitted alongside as
// the "clean" baseline, which doubles as a regression check that the fault
// layer is a strict no-op when disabled.
int fig10_robustness() {
  const wl::Trace trace = standard_rw(/*seed=*/1);
  const cluster::ReplayOptions clean = paper_options();
  cluster::ReplayOptions faulty = clean;
  fault::FaultPlan& plan = faulty.faults;
  plan.seed = 2026;
  plan.crash_prob = 0.05;       // per-MDS per-epoch
  plan.crash_recovery = sim::millis(400);
  plan.straggler_prob = 0.06;
  plan.straggler_slow = 4.0;
  plan.straggler_duration = sim::millis(300);
  plan.rpc_loss_prob = 0.0005;  // per one-way message
  plan.rpc_corrupt_prob = 0.0001;
  faulty.retry.max_retries = 5;
  faulty.retry.timeout = sim::millis(2);

  const auto& models = rw_models();

  Table t("fig10", "robustness",
          {{"strategy", 0, 10}, {"mode", 0, 6}, {"steady_throughput_ops", 0},
           {"p50_rct_us", 1}, {"p99_rct_us", 1}, {"retries"}, {"timeouts"},
           {"failed_ops"}, {"failovers"}, {"failover_dirs"},
           {"aborted_migrations"}, {"time_down_s", 2},
           {"time_degraded_s", 2}});
  const auto report = [&t](const cluster::RunResult& r, const char* mode) {
    const cluster::RobustnessStats& f = r.faults;
    t.row({r.balancer_name, mode, r.steady_throughput_ops, r.p50_latency_us,
           r.p99_latency_us, f.retries, f.timeouts, f.failed_ops, f.failovers,
           f.failover_dirs, f.aborted_migrations,
           sim::to_seconds(f.time_down), sim::to_seconds(f.time_degraded)});
  };
  for (const std::string spec : kPaperPolicies) {
    const auto base = run_policy(spec, trace, clean, &models);
    report(base, "clean");
    const auto hurt = run_policy(spec, trace, faulty, &models);
    report(hurt, "faulty");
    std::printf("%s: p99 degradation %.2fx\n", base.balancer_name.c_str(),
                base.p99_latency_us > 0
                    ? hurt.p99_latency_us / base.p99_latency_us
                    : 0.0);
  }

  std::printf("\nevery strategy saw the identical seeded fault schedule "
              "(seed 2026): crash p=0.05/epoch,\nstraggler p=0.06/epoch "
              "(4x slow), RPC loss 5e-4. CSV: fig10_robustness.csv\n");
  return 0;
}

// Beyond-paper Figure 11 — durable recovery under a crash-rate sweep.
//
// Replays Trace-RW for the hash baselines and Origami while sweeping the
// per-MDS per-epoch crash probability. Every crashed MDS leaves a torn
// journal tail, its fragments fail over to survivors, and the survivors
// replay its metadata journal before serving the absorbed fragments — so
// recovery is a priced window, not an instantaneous flip. The figure
// reports the mean journal-replay window, the request time spent queued
// behind recovery, fencing volume, and the p99 degradation relative to the
// same strategy's crash-free run.
//
// Every run is audited post-hoc by the NamespaceInvariantChecker (I1-I8);
// a violation fails the bench loudly rather than producing a pretty CSV.
int fig11_recovery() {
  const wl::Trace trace = standard_rw(/*seed=*/1, /*ops=*/150'000);
  const cluster::ReplayOptions base = paper_options();
  const auto models =
      train_for(standard_rw(/*seed=*/99, /*ops=*/150'000), base);

  Table t("fig11", "recovery",
          {{"strategy", 0, 10}, {"crash_prob", 2},
           {"steady_throughput_ops", 0}, {"p50_rct_us", 1}, {"p99_rct_us", 1},
           {"p99_degradation", 2}, {"crashes"}, {"journal_replays"},
           {"journal_replayed_records"}, {"mean_replay_window_ms", 2},
           {"recovery_queue_s", 2}, {"fenced_rejections"},
           {"prepared_migrations"}, {"committed_migrations"},
           {"aborted_migrations"}, {"failed_ops"}, {"invariants_ok"}});
  int violations = 0;
  for (const char* spec : {"c-hash", "f-hash", "origami"}) {
    double clean_p99 = 0.0;
    for (double rate : {0.0, 0.02, 0.05, 0.10}) {
      const auto r =
          run_policy(spec, trace, with_crashes(base, rate), &models);
      if (rate == 0.0) clean_p99 = r.p99_latency_us;
      const auto& f = r.faults;
      bool ok = true;
      if (r.ledger) {
        const auto report =
            recovery::NamespaceInvariantChecker::check(trace.tree, *r.ledger);
        ok = report.ok();
        if (!ok) {
          ++violations;
          std::printf("INVARIANT VIOLATION (%s, crash p=%.2f):\n%s",
                      r.balancer_name.c_str(), rate,
                      report.to_string().c_str());
        }
      }
      t.row({r.balancer_name, rate, r.steady_throughput_ops,
             r.p50_latency_us, r.p99_latency_us,
             clean_p99 > 0 ? r.p99_latency_us / clean_p99 : 0.0, f.crashes,
             f.journal_replays, f.journal_replayed_records,
             f.journal_replays > 0
                 ? sim::to_seconds(f.recovery_window_time) * 1e3 /
                       static_cast<double>(f.journal_replays)
                 : 0.0,
             sim::to_seconds(f.recovery_queue_time), f.fenced_rejections,
             f.prepared_migrations, f.committed_migrations,
             f.aborted_migrations, f.failed_ops,
             std::uint64_t{ok ? 1u : 0u}});
    }
  }

  if (violations > 0) {
    std::printf("FAILED: %d run(s) violated namespace invariants\n",
                violations);
    return 1;
  }
  std::printf("\nall runs audited: I1-I8 hold under every crash rate. "
              "CSV: fig11_recovery.csv\n");
  return 0;
}

// Appendix bench (beyond the paper): where does Origami's thesis *not*
// apply? mdtest's flat, evenly-loaded namespace is the regime the paper's
// related work (Lustre/InfiniFS-style hashing) was built for: there is no
// skew to exploit and no locality to preserve beyond one level. Expect
// hashing to be fully competitive here — the point of the probe is that a
// balancer should not lose on it either.
int appendix_mdtest() {
  wl::TraceMdtestConfig cfg;
  cfg.ranks = 64;
  cfg.files_per_rank = 400;
  const wl::Trace trace = wl::make_trace_mdtest(cfg);
  const auto s = wl::summarize(trace);
  std::printf("trace: %lu ops over %u rank dirs (writes %.0f%%)\n\n",
              static_cast<unsigned long>(s.total_ops), cfg.ranks,
              s.write_fraction * 100);

  const cluster::ReplayOptions opt = paper_options();
  const auto models = train_for(wl::make_trace_mdtest({99, 64, 400, 2}), opt);

  Table t("appendix_mdtest", "results",
          {{"strategy", 0, 10}, {"throughput_ops", 0}, {"rpc_per_req", 3},
           {"imf_busy", 2}});
  for (const std::string spec : kPaperPolicies) {
    const auto r = run_policy(spec, trace, opt, &models);
    t.row({r.balancer_name, r.steady_throughput_ops, r.rpc_per_request,
           r.imf_busy});
  }

  std::printf("\nexpected: dir-granular balancing (ml-tree and origami "
              "converge here) spreads the\n64 rank dirs perfectly; c-hash "
              "is limited only by hash collisions among them;\nf-hash pays "
              "coordination on the create/unlink phases (67%% writes).\n");
  return 0;
}

// Appendix bench (beyond the paper): a multi-tenant cluster serving the
// compile farm, the web tier and the write-intensive ingester at once —
// the regime where a single static partitioning cannot fit all tenants
// and benefit-driven migration should shine the most.
int appendix_mixed() {
  const wl::Trace rw = standard_rw(1, 150'000);
  const wl::Trace ro = standard_ro(1, 150'000);
  const wl::Trace wi = standard_wi(1, 150'000);
  const wl::Trace mixed = wl::interleave_traces({&rw, &ro, &wi}, 29);
  const auto s = wl::summarize(mixed);
  std::printf("mixed trace: %lu ops, %zu dirs, writes %.0f%%, max depth %u\n\n",
              static_cast<unsigned long>(s.total_ops), mixed.tree.dir_count(),
              s.write_fraction * 100, s.max_depth);

  cluster::ReplayOptions opt = paper_options();
  // Grafting adds one namespace level; keep the near-root cache covering
  // the same (sub-1%) region relative to the deeper tree.
  opt.cache_depth = 4;
  // Train on a differently-seeded mixture of the same families.
  const wl::Trace t_rw = standard_rw(99, 120'000);
  const wl::Trace t_ro = standard_ro(99, 120'000);
  const wl::Trace t_wi = standard_wi(99, 120'000);
  const wl::Trace train = wl::interleave_traces({&t_rw, &t_ro, &t_wi}, 31);
  const auto models = train_for(train, opt);

  Table t("appendix_mixed", "results",
          {{"strategy", 0, 10}, {"throughput_ops", 0}, {"rpc_per_req", 3},
           {"imf_busy", 2}});
  double best_baseline = 0;
  double origami_tput = 0;
  for (const std::string spec : kPaperPolicies) {
    const auto r = run_policy(spec, mixed, opt, &models);
    t.row({r.balancer_name, r.steady_throughput_ops, r.rpc_per_request,
           r.imf_busy});
    if (spec == "origami") {
      origami_tput = r.steady_throughput_ops;
    } else if (spec != "single") {
      best_baseline = std::max(best_baseline, r.steady_throughput_ops);
    }
  }
  std::printf("\norigami vs best baseline: %+.1f%%\n",
              100.0 * (origami_tput / best_baseline - 1.0));
  std::printf("\nexpected: the mixture dilutes each tenant's skew, so coarse "
              "hashing of the twelve\ntop-level trees is already strong; "
              "origami matches it while keeping RPC/request\nnear 1 and "
              "without any per-tenant anchoring configuration.\n");
  return 0;
}

// Appendix bench (beyond the paper): run the whole Origami loop against
// the *live* OrigamiFS service (real KV shards, real migrations, no cost
// simulation): train a benefit model in the simulator, then let the live
// form of the registry's origami policy drive the live Migrator while a
// Trace-RW replay hammers the shards. Reported balance is measured from
// real per-shard dirent operations.
int appendix_live() {
  const wl::Trace trace = standard_rw(1, 200'000);
  policy::PolicyContext ctx;
  ctx.benefit_model = rw_models().benefit;
  auto made = policy::Registry::builtin().make_live(
      "origami:min-ops=32,min-benefit=0", ctx);
  if (!made.is_ok()) {
    std::fprintf(stderr, "error: %s\n", made.status().to_string().c_str());
    return 1;
  }
  Table t("appendix_live", "results",
          {{"mode", 0, 10}, {"executed"}, {"failed"}, {"migrations"},
           {"imbalance", 2}});
  // Unbalanced: everything stays on shard 0. Balanced: the
  // simulator-trained model drives the live Migrator.
  for (policy::LivePolicy* live : {static_cast<policy::LivePolicy*>(nullptr),
                                   made.value().get()}) {
    fs::OrigamiFs::Options fopt;
    fopt.shards = 5;
    fs::OrigamiFs fsys(fopt);
    fs::LiveReplayOptions opt;
    opt.epoch_ops = 20'000;
    if (live != nullptr) {
      opt.on_epoch = [live](fs::OrigamiFs& f, fs::LiveFaultContext& c) {
        return live->on_epoch(f, c);
      };
    }
    const fs::LiveReplayStats r = fs::replay_on_live(trace, fsys, opt);
    t.row({live == nullptr ? "unbalanced" : "origami", r.executed, r.failed,
           r.migrations, r.shard_imbalance});
  }

  std::printf("\nexpected: the unbalanced run serves everything from shard 0 "
              "(imbalance 1.0);\nthe simulator-trained model transfers to the "
              "live service and spreads the\nreal dirent traffic.\n");
  return 0;
}

// Beyond the paper: the classic open-loop latency-vs-offered-load curve.
// Poisson arrivals at increasing rates against the converged partition of
// each strategy. The knee of each curve is that strategy's usable
// capacity; Origami's knee should sit furthest right (its balanced,
// forwarding-free partition wastes the least capacity).
int latency_vs_load() {
  const wl::Trace trace = standard_rw(/*seed=*/1);
  const cluster::ReplayOptions base = paper_options();
  const auto& models = rw_models();

  Table t("latency_vs_load", "curves",
          {{"strategy", 0, 10}, {"offered_kops", 0}, {"p50_us", 1},
           {"p99_us", 1}, {"completed"}});
  for (const char* spec : {"c-hash", "f-hash", "origami"}) {
    // Converge the partition under closed-loop saturation first.
    const auto hot = run_policy(spec, trace, base, &models);
    for (double rate_k : {10.0, 20.0, 30.0, 40.0, 50.0, 60.0}) {
      cluster::ReplayOptions opt = base;
      opt.arrival =
          "open:rate=" + std::to_string(static_cast<int>(rate_k * 1000));
      opt.loop_trace = true;
      opt.time_limit = sim::seconds(4);
      cluster::FixedPartitionBalancer frozen(hot);
      const auto r = cluster::replay_trace(trace, opt, frozen);
      t.row({hot.balancer_name, rate_k, r.p50_latency_us, r.p99_latency_us,
             r.completed_ops});
    }
  }

  std::printf("\nexpected: every curve explodes past its capacity knee; "
              "origami's knee sits at the\nhighest offered load, f-hash's "
              "at the lowest.\n");
  return 0;
}

struct Preset {
  std::string_view name;
  const char* banner;
  int (*run)();
};

constexpr Preset kPresets[] = {
    {"fig2_motivation", "Fig. 2 — even per-directory partitioning vs one MDS",
     fig2_motivation},
    {"fig5_overall", "Fig. 5 — overall performance on Trace-RW", fig5_overall},
    {"fig6_imbalance", "Fig. 6 — imbalance factors on Trace-RW",
     fig6_imbalance},
    {"fig7_efficiency", "Fig. 7 — efficiency over time on Trace-RW",
     fig7_efficiency},
    {"fig8_scalability", "Fig. 8 — scalability, 2..5 MDSs on Trace-RW",
     fig8_scalability},
    {"fig9_realworld", "Fig. 9 — three real-world workloads", fig9_realworld},
    {"fig10_robustness",
     "Fig. 10 — robustness under MDS crashes, stragglers and RPC loss",
     fig10_robustness},
    {"fig11_recovery", "Fig. 11 — journaled recovery vs crash rate",
     fig11_recovery},
    {"table1_features", "Table 1 — features and Gini-importance ranking",
     table1_features},
    {"table2_cache", "Table 2 — near-root cache ablation on Trace-RW",
     table2_cache},
    {"ablation_models", "Ablation — LightGBM vs GBDT vs MLP (§4.3)",
     ablation_models},
    {"ablation_delta", "Ablation — Meta-OPT imbalance guard Δ",
     ablation_delta},
    {"ablation_epoch", "Ablation — epoch length on Trace-WI", ablation_epoch},
    {"ablation_cache_depth",
     "Ablation — near-root cache depth (Trace-RO, deep paths)",
     ablation_cache_depth},
    {"ablation_metaopt", "Ablation — Meta-OPT greedy vs exhaustive",
     ablation_metaopt},
    {"ablation_rpc_cost", "Ablation — per-RPC handling cost (Trace-RW, 5 MDS)",
     ablation_rpc_cost},
    {"ablation_lookahead", "Ablation — Meta-OPT lookahead window (Trace-RW)",
     ablation_lookahead},
    {"ablation_trigger", "Ablation — rebalance trigger on Trace-WI",
     ablation_trigger},
    {"appendix_mdtest", "Appendix — mdtest (flat namespace, even load)",
     appendix_mdtest},
    {"appendix_mixed",
     "Appendix — mixed multi-tenant workload (RW + RO + WI)", appendix_mixed},
    {"appendix_live", "Appendix — the live OrigamiFS service under Trace-RW",
     appendix_live},
    {"latency_vs_load", "Latency vs offered load (Trace-RW, open loop)",
     latency_vs_load},
};

int usage(const char* arg) {
  std::fprintf(stderr,
               "error: '%s' is not a preset\n"
               "usage: experiments [NAME...]\n"
               "Runs the named presets, or every one in this order; each "
               "writes its CSVs into\nthe working directory. No flags.\n",
               arg);
  for (const Preset& p : kPresets) {
    std::fprintf(stderr, "  %-22.*s %s\n", static_cast<int>(p.name.size()),
                 p.name.data(), p.banner);
  }
  return 2;
}

}  // namespace
}  // namespace origami::bench

int main(int argc, char** argv) {
  using origami::bench::kPresets;
  using origami::bench::Preset;
  std::vector<const Preset*> chosen;
  for (int i = 1; i < argc; ++i) {
    const auto* p = std::find_if(
        std::begin(kPresets), std::end(kPresets),
        [&](const Preset& preset) { return preset.name == argv[i]; });
    if (p == std::end(kPresets)) return origami::bench::usage(argv[i]);
    chosen.push_back(p);
  }
  if (chosen.empty()) {
    for (const Preset& p : kPresets) chosen.push_back(&p);
  }
  for (const Preset* p : chosen) {
    std::printf("=== %s ===\n\n", p->banner);
    if (const int rc = p->run(); rc != 0) return rc;
    std::printf("\n");
  }
  return 0;
}
