// Ablation: epoch length (the paper fixes it at 10 s, footnote 2). Shorter
// epochs react faster to hotspot drift but rebalance on noisier statistics
// and migrate more; longer epochs lag the workload.
//
// Runs the oracle balancer on the *write-intensive* trace, whose drifting
// hotspots make epoch length matter most (§5.6).

#include <cstdio>

#include "bench_common.hpp"
#include "origami/common/csv.hpp"

using namespace origami;

int main() {
  std::printf("=== Ablation — epoch length on Trace-WI ===\n\n");
  const wl::Trace trace = bench::standard_wi(/*seed=*/1);

  common::CsvWriter csv = bench::open_csv("ablation_epoch", "sweep");
  csv.header({"epoch_ms", "throughput_ops", "migrations", "if_busy"});

  std::printf("%-10s %14s %12s %8s\n", "epoch", "ops/s", "migrations",
              "IF:busy");
  for (double epoch_ms : {125.0, 250.0, 500.0, 1000.0, 2000.0, 4000.0}) {
    cluster::ReplayOptions opt = bench::paper_options();
    opt.epoch_length = sim::millis(epoch_ms);
    // Keep the warm-up *duration* comparable across epoch lengths.
    opt.warmup_epochs =
        static_cast<std::uint32_t>(std::max(1.0, 2000.0 / epoch_ms));
    core::MetaOptParams p;
    p.min_subtree_ops = 8;
    p.stop_threshold = sim::micros(500);
    core::MetaOptOracleBalancer balancer(cost::CostModel{opt.cost_params}, p,
                                         core::RebalanceTrigger{0.05});
    const auto r = cluster::replay_trace(trace, opt, balancer);
    std::printf("%6.0f ms  %14.0f %12lu %8.2f\n", epoch_ms,
                r.steady_throughput_ops,
                static_cast<unsigned long>(r.migrations), r.imf_busy);
    csv.field(epoch_ms)
        .field(r.steady_throughput_ops)
        .field(r.migrations)
        .field(r.imf_busy);
    csv.endrow();
  }

  std::printf("\nexpected: mid-range epochs win; very long epochs cannot "
              "track the drifting\nhot tenants of Trace-WI.\n");
  bench::close_csv(csv);
  return 0;
}
