// Appendix bench (beyond the paper): a multi-tenant cluster serving the
// compile farm, the web tier and the write-intensive ingester at once —
// the regime where a single static partitioning cannot fit all tenants
// and benefit-driven migration should shine the most.

#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "origami/common/csv.hpp"

using namespace origami;

int main() {
  std::printf("=== Appendix — mixed multi-tenant workload (RW + RO + WI) ===\n\n");
  const wl::Trace rw = bench::standard_rw(1, 150'000);
  const wl::Trace ro = bench::standard_ro(1, 150'000);
  const wl::Trace wi = bench::standard_wi(1, 150'000);
  const wl::Trace mixed = wl::interleave_traces({&rw, &ro, &wi}, 29);
  const auto s = wl::summarize(mixed);
  std::printf("mixed trace: %lu ops, %zu dirs, writes %.0f%%, max depth %u\n\n",
              static_cast<unsigned long>(s.total_ops), mixed.tree.dir_count(),
              s.write_fraction * 100, s.max_depth);

  cluster::ReplayOptions opt = bench::paper_options();
  // Grafting adds one namespace level; keep the near-root cache covering
  // the same (sub-1%) region relative to the deeper tree.
  opt.cache_depth = 4;
  // Train on a differently-seeded mixture of the same families.
  const wl::Trace t_rw = bench::standard_rw(99, 120'000);
  const wl::Trace t_ro = bench::standard_ro(99, 120'000);
  const wl::Trace t_wi = bench::standard_wi(99, 120'000);
  const wl::Trace train = wl::interleave_traces({&t_rw, &t_ro, &t_wi}, 31);
  const auto models = bench::train_for(train, opt);

  common::CsvWriter csv = bench::open_csv("appendix_mixed", "results");
  csv.header({"strategy", "throughput_ops", "rpc_per_req", "imf_busy"});

  std::printf("%-10s %14s %9s %9s\n", "strategy", "ops/s", "RPC/req",
              "IF:busy");
  double best_baseline = 0;
  double origami_tput = 0;
  for (const std::string spec : bench::kPaperPolicies) {
    cluster::ReplayOptions run_opt = opt;
    if (spec == "single") run_opt.mds_count = 1;
    const auto r = bench::run_policy(spec, mixed, run_opt, &models);
    std::printf("%-10s %14.0f %9.3f %9.2f\n", r.balancer_name.c_str(),
                r.steady_throughput_ops, r.rpc_per_request, r.imf_busy);
    csv.field(r.balancer_name)
        .field(r.steady_throughput_ops)
        .field(r.rpc_per_request)
        .field(r.imf_busy);
    csv.endrow();
    if (spec == "origami") {
      origami_tput = r.steady_throughput_ops;
    } else if (spec != "single") {
      best_baseline = std::max(best_baseline, r.steady_throughput_ops);
    }
  }
  if (best_baseline > 0) {
    std::printf("\norigami vs best baseline: %+.1f%%\n",
                100.0 * (origami_tput / best_baseline - 1.0));
  }
  std::printf("\nexpected: the mixture dilutes each tenant's skew, so coarse "
              "hashing of the twelve\ntop-level trees is already strong; "
              "origami matches it while keeping RPC/request\nnear 1 and "
              "without any per-tenant anchoring configuration.\n");
  bench::close_csv(csv);
  return 0;
}
