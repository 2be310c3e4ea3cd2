// bench_pipeline — wall-clock scaling of the parallel analysis plane.
//
// Times the three analysis-plane hot paths — per-window RCT decomposition
// (evaluate_window), the Meta-OPT greedy search (MetaOpt::optimize) and
// §4.3 train-data generation (generate_labels) — at 1/2/4/8 analysis
// threads on one generated trace, verifies that every thread count
// reproduces the single-threaded result bit-for-bit, and then writes
// BENCH_pipeline.json (no CSV beside it).
//
//   bench_pipeline                 # 500k-op trace, threads 1/2/4/8
//   bench_pipeline --smoke         # CI mode: small trace, threads 1/2
//   bench_pipeline --ops N --out PATH

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "origami/common/csv.hpp"
#include "origami/common/flags.hpp"
#include "origami/common/thread_pool.hpp"
#include "origami/core/meta_opt.hpp"

using namespace origami;

namespace {

double time_ms(const std::function<void()>& fn, int reps) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

struct Sample {
  std::size_t threads = 1;
  double window_ms = 0.0;
  double meta_opt_ms = 0.0;
  double train_ms = 0.0;
  bool identical_to_t1 = true;
};

}  // namespace

int main(int argc, char** argv) {
  const common::Flags flags(argc, argv);
  const bool smoke = flags.get_bool("smoke", false);
  const auto ops = static_cast<std::uint64_t>(
      flags.get_int("ops", smoke ? 40'000 : 500'000));
  const auto train_ops = static_cast<std::uint64_t>(
      flags.get_int("train-ops", smoke ? 20'000 : 120'000));
  const std::string out_path = flags.get("out", "BENCH_pipeline.json");
  const std::uint32_t mds = 8;
  const int reps = smoke ? 1 : 3;

  const wl::Trace trace = bench::standard_rw(1, ops);
  const wl::Trace train_trace = bench::standard_rw(7, train_ops);

  // Spread ownership like the C-Hash baseline so the window touches every
  // MDS and Meta-OPT has real imbalance to chew on.
  mds::PartitionMap partition(trace.tree, mds);
  cluster::StaticBalancer chash(cluster::StaticBalancer::Kind::kCoarseHash);
  chash.prepare(trace.tree, partition);

  const cost::CostModel model;
  core::MetaOptParams mo_params;

  core::LabelGenOptions lg;
  lg.replay = bench::paper_options();
  lg.replay.mds_count = mds;

  std::vector<std::size_t> thread_counts =
      smoke ? std::vector<std::size_t>{1, 2}
            : std::vector<std::size_t>{1, 2, 4, 8};
  std::vector<Sample> samples;

  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  if (cores < thread_counts.back()) {
    std::printf("note: host has %u core(s); speedups above %u threads "
                "measure scheduling overhead, not scaling\n",
                cores, cores);
  }

  // Single-threaded reference outputs for the bit-identity check.
  std::vector<sim::SimTime> ref_bins;
  std::vector<cluster::MigrationDecision> ref_decisions;
  std::size_t ref_benefit_rows = 0;
  double ref_benefit_sum = 0.0;

  for (const std::size_t t : thread_counts) {
    common::set_analysis_threads(t);
    Sample s;
    s.threads = t;

    cost::JctAccumulator bins(1);
    s.window_ms = time_ms(
        [&] {
          bins = core::evaluate_window(trace.ops, trace.tree, partition, model,
                                       true, 3);
        },
        reps);

    core::MetaOpt engine(model, mo_params);
    std::vector<cluster::MigrationDecision> decisions;
    s.meta_opt_ms = time_ms(
        [&] {
          decisions = engine.optimize(trace.ops, trace.tree, partition);
        },
        reps);

    core::LabelGenResult labels;
    s.train_ms = time_ms(
        [&] { labels = core::generate_labels(train_trace, lg); }, 1);

    double benefit_sum = 0.0;
    for (std::size_t i = 0; i < labels.benefit_data.size(); ++i) {
      benefit_sum += labels.benefit_data.label(i);
    }
    if (t == thread_counts.front()) {
      ref_bins = bins.per_mds();
      ref_decisions = decisions;
      ref_benefit_rows = labels.benefit_data.size();
      ref_benefit_sum = benefit_sum;
    } else {
      s.identical_to_t1 = bins.per_mds() == ref_bins &&
                          decisions.size() == ref_decisions.size() &&
                          labels.benefit_data.size() == ref_benefit_rows &&
                          benefit_sum == ref_benefit_sum;
      for (std::size_t i = 0;
           s.identical_to_t1 && i < decisions.size(); ++i) {
        s.identical_to_t1 = decisions[i].subtree == ref_decisions[i].subtree &&
                            decisions[i].from == ref_decisions[i].from &&
                            decisions[i].to == ref_decisions[i].to;
      }
    }

    std::printf("threads %zu: window %.1f ms  meta-opt %.1f ms  "
                "train-gen %.1f ms  identical %s\n",
                t, s.window_ms, s.meta_opt_ms, s.train_ms,
                s.identical_to_t1 ? "yes" : "NO");
    samples.push_back(s);
  }
  common::set_analysis_threads(1);

  bool all_identical = true;
  for (const Sample& s : samples) all_identical &= s.identical_to_t1;
  if (!all_identical) {
    std::fprintf(stderr,
                 "error: multi-threaded outputs differ from --threads 1\n");
    return 1;
  }

  common::CsvWriter results;
  results.header({"threads", "window_analysis_ms", "meta_opt_ms",
                  "train_data_ms", "window_speedup", "meta_opt_speedup"});
  const Sample& base = samples.front();
  for (const Sample& s : samples) {
    results.field(s.threads)
        .field(s.window_ms)
        .field(s.meta_opt_ms)
        .field(s.train_ms)
        .field(s.window_ms > 0 ? base.window_ms / s.window_ms : 0.0)
        .field(s.meta_opt_ms > 0 ? base.meta_opt_ms / s.meta_opt_ms : 0.0);
    results.endrow();
  }
  bench::write_report(out_path, "pipeline",
                      {{"ops", ops},
                       {"train_ops", train_ops},
                       {"mds", mds},
                       {"smoke", smoke}},
                      results);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
