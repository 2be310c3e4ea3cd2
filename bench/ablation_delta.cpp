// Ablation: the Δ imbalance guard of Algorithm 1 (line 9 / Theorem 1).
// Sweeps Δ and reports oracle-balancer throughput, migrations and the
// busy-time imbalance factor: too-small Δ forbids useful moves; too-large
// Δ admits over-corrections (ping-pong migrations).

#include <cstdio>

#include "bench_common.hpp"
#include "origami/common/csv.hpp"

using namespace origami;

int main() {
  std::printf("=== Ablation — Meta-OPT imbalance guard Δ ===\n\n");
  const wl::Trace trace = bench::standard_rw(/*seed=*/1);
  const cluster::ReplayOptions opt = bench::paper_options();

  common::CsvWriter csv = bench::open_csv("ablation_delta", "sweep");
  csv.header({"delta_ms", "throughput_ops", "migrations", "if_busy",
              "rpc_per_req"});

  std::printf("%-10s %14s %12s %8s %9s\n", "delta", "ops/s", "migrations",
              "IF:busy", "RPC/req");
  for (double delta_ms : {1.0, 10.0, 100.0, 400.0, 800.0, 2000.0, 8000.0}) {
    core::MetaOptParams p;
    p.min_subtree_ops = 8;
    p.stop_threshold = sim::micros(500);
    p.delta = sim::millis(delta_ms);
    core::MetaOptOracleBalancer balancer(cost::CostModel{opt.cost_params}, p,
                                         core::RebalanceTrigger{0.05});
    const auto r = cluster::replay_trace(trace, opt, balancer);
    std::printf("%6.0f ms  %14.0f %12lu %8.2f %9.3f\n", delta_ms,
                r.steady_throughput_ops,
                static_cast<unsigned long>(r.migrations), r.imf_busy,
                r.rpc_per_request);
    csv.field(delta_ms)
        .field(r.steady_throughput_ops)
        .field(r.migrations)
        .field(r.imf_busy)
        .field(r.rpc_per_request);
    csv.endrow();
  }

  std::printf("\nexpected: a broad plateau at moderate Δ; degradation at "
              "the extremes.\n");
  bench::close_csv(csv);
  return 0;
}
