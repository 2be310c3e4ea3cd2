// Ablation: the Lunule-style rebalance trigger. Sweeps the imbalance
// threshold and compares the raw per-epoch trigger against the smoothed
// variant (EWMA + patience) on the drifting write-intensive trace.
// Too-sensitive triggers chase noise with migration churn; too-lazy ones
// leave imbalance standing.

#include <cstdio>

#include "bench_common.hpp"
#include "origami/common/csv.hpp"

using namespace origami;

namespace {

cluster::RunResult run_with_trigger(const wl::Trace& trace,
                                    const cluster::ReplayOptions& opt,
                                    core::RebalanceTrigger trigger) {
  core::MetaOptParams p;
  p.min_subtree_ops = 8;
  p.stop_threshold = sim::micros(500);
  core::MetaOptOracleBalancer balancer(cost::CostModel{opt.cost_params}, p,
                                       trigger);
  return cluster::replay_trace(trace, opt, balancer);
}

}  // namespace

int main() {
  std::printf("=== Ablation — rebalance trigger on Trace-WI ===\n\n");
  const wl::Trace trace = bench::standard_wi(/*seed=*/1);
  const cluster::ReplayOptions opt = bench::paper_options();

  common::CsvWriter csv = bench::open_csv("ablation_trigger", "sweep");
  csv.header({"variant", "threshold", "throughput_ops", "migrations"});

  std::printf("%-22s %10s %14s %12s\n", "variant", "threshold", "ops/s",
              "migrations");
  for (double threshold : {0.01, 0.05, 0.15, 0.30, 0.60}) {
    core::RebalanceTrigger raw;
    raw.threshold = threshold;
    const auto r = run_with_trigger(trace, opt, raw);
    std::printf("%-22s %10.2f %14.0f %12lu\n", "raw", threshold,
                r.steady_throughput_ops,
                static_cast<unsigned long>(r.migrations));
    csv.field("raw").field(threshold).field(r.steady_throughput_ops)
        .field(r.migrations);
    csv.endrow();

    core::RebalanceTrigger smoothed;
    smoothed.threshold = threshold;
    smoothed.ewma_alpha = 0.5;
    smoothed.patience = 2;
    const auto rs = run_with_trigger(trace, opt, smoothed);
    std::printf("%-22s %10.2f %14.0f %12lu\n", "ewma(0.5)+patience(2)",
                threshold, rs.steady_throughput_ops,
                static_cast<unsigned long>(rs.migrations));
    csv.field("ewma+patience").field(threshold)
        .field(rs.steady_throughput_ops).field(rs.migrations);
    csv.endrow();
  }

  std::printf("\nexpected: a broad sweet spot at small-but-nonzero "
              "thresholds; smoothing trades a\nlittle reaction speed for "
              "fewer churn migrations at sensitive thresholds.\n");
  bench::close_csv(csv);
  return 0;
}
