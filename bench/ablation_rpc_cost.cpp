// Ablation: per-RPC handling cost (t_rpc_handle). The paper's central
// tension — locality vs balance — hinges on how expensive forwarded RPCs
// are. This sweep shows the crossover: with cheap RPCs, fine-grained
// hashing's balance wins; as RPC handling grows toward realistic values,
// locality-preserving strategies take over, and origami stays on top by
// avoiding forwarding altogether.

#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "origami/common/csv.hpp"

using namespace origami;

int main() {
  std::printf("=== Ablation — per-RPC handling cost (Trace-RW, 5 MDS) ===\n\n");
  const wl::Trace trace = bench::standard_rw(/*seed=*/1);

  common::CsvWriter csv = bench::open_csv("ablation_rpc_cost", "sweep");
  csv.header({"t_rpc_us", "strategy", "throughput_ops"});

  std::printf("%-10s %12s %12s %12s %12s\n", "t_rpc", "single", "c-hash",
              "f-hash", "origami");
  for (double rpc_us : {10.0, 25.0, 50.0, 100.0, 200.0}) {
    cluster::ReplayOptions opt = bench::paper_options();
    opt.cost_params.t_rpc_handle = sim::micros(rpc_us);
    const auto models = bench::train_for(bench::standard_rw(/*seed=*/99), opt);

    std::printf("%6.0f us ", rpc_us);
    for (const std::string spec : {"single", "c-hash", "f-hash", "origami"}) {
      cluster::ReplayOptions run_opt = opt;
      if (spec == "single") run_opt.mds_count = 1;
      const auto r = bench::run_policy(spec, trace, run_opt, &models);
      std::printf(" %12.0f", r.steady_throughput_ops);
      csv.field(rpc_us).field(spec).field(r.steady_throughput_ops);
      csv.endrow();
    }
    std::printf("\n");
  }

  std::printf("\nexpected: at very cheap RPCs forwarding is nearly free and "
              "hashing is competitive\n(the cluster turns client-limited); "
              "from ~25 us upward origami leads because its\nRPC/request "
              "stays near 1 while the hash baselines burn capacity on "
              "forwarding.\n");
  bench::close_csv(csv);
  return 0;
}
