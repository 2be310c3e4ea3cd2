// Appendix bench (beyond the paper): where does Origami's thesis *not*
// apply? mdtest's flat, evenly-loaded namespace is the regime the paper's
// related work (Lustre/InfiniFS-style hashing) was built for: there is no
// skew to exploit and no locality to preserve beyond one level. Expect
// hashing to be fully competitive here — the point of the probe is that a
// balancer should not lose on it either.

#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "origami/common/csv.hpp"

using namespace origami;

int main() {
  std::printf("=== Appendix — mdtest (flat namespace, even load) ===\n\n");
  wl::TraceMdtestConfig cfg;
  cfg.ranks = 64;
  cfg.files_per_rank = 400;
  const wl::Trace trace = wl::make_trace_mdtest(cfg);
  const auto s = wl::summarize(trace);
  std::printf("trace: %lu ops over %u rank dirs (writes %.0f%%)\n\n",
              static_cast<unsigned long>(s.total_ops), cfg.ranks,
              s.write_fraction * 100);

  const cluster::ReplayOptions opt = bench::paper_options();
  const auto models =
      bench::train_for(wl::make_trace_mdtest({99, 64, 400, 2}), opt);

  common::CsvWriter csv = bench::open_csv("appendix_mdtest", "results");
  csv.header({"strategy", "throughput_ops", "rpc_per_req", "imf_busy"});

  std::printf("%-10s %14s %9s %9s\n", "strategy", "ops/s", "RPC/req",
              "IF:busy");
  for (const std::string spec : bench::kPaperPolicies) {
    cluster::ReplayOptions run_opt = opt;
    if (spec == "single") run_opt.mds_count = 1;
    const auto r = bench::run_policy(spec, trace, run_opt, &models);
    std::printf("%-10s %14.0f %9.3f %9.2f\n", r.balancer_name.c_str(),
                r.steady_throughput_ops, r.rpc_per_request, r.imf_busy);
    csv.field(r.balancer_name)
        .field(r.steady_throughput_ops)
        .field(r.rpc_per_request)
        .field(r.imf_busy);
    csv.endrow();
  }

  std::printf("\nexpected: dir-granular balancing (ml-tree and origami "
              "converge here) spreads the\n64 rank dirs perfectly; c-hash "
              "is limited only by hash collisions among them;\nf-hash pays "
              "coordination on the create/unlink phases (67%% writes).\n");
  bench::close_csv(csv);
  return 0;
}
