// Reproduces Figure 6 (§5.3, "Balance Analysis"): the imbalance factor of
// the four strategies across four metrics — QPS, RPCs, Inodes, BusyTime
// (lower = more even; 1 means everything on one MDS).
//
// Paper shape: f-hash is the most even on QPS/RPC/Inodes (but only a
// little better than c-hash); ml-tree has the *worst* BusyTime balance;
// origami's BusyTime imbalance is the lowest (-48.3% vs f-hash) — all
// MDSs stay busy even though its inode placement is uneven.

#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "origami/common/csv.hpp"
#include "origami/policy/registry.hpp"

using namespace origami;

int main(int argc, char** argv) {
  std::printf("=== Fig. 6 — imbalance factors on Trace-RW ===\n\n");
  const wl::Trace trace = bench::standard_rw(/*seed=*/1);
  const cluster::ReplayOptions opt =
      bench::options_from_argv(argc, argv, bench::paper_options());
  if (!opt.policy.empty()) {
    if (auto ok = policy::Registry::builtin().validate(opt.policy);
        !ok.is_ok()) {
      std::fprintf(stderr, "error: %s\n", ok.to_string().c_str());
      return 2;
    }
  }
  const auto models = bench::train_for(bench::standard_rw(/*seed=*/99), opt);

  common::CsvWriter csv = bench::open_csv("fig6", "imbalance");
  csv.header({"strategy", "if_qps", "if_rpc", "if_inodes", "if_busytime"});

  std::printf("%-10s %8s %8s %8s %10s\n", "strategy", "QPS", "RPCs",
              "Inodes", "BusyTime");
  double fhash_busy = 0.0;
  double origami_busy = 0.0;
  for (const std::string spec :
       {"c-hash", "f-hash", "ml-tree:min-ops=8", "origami"}) {
    const auto r = bench::run_policy(spec, trace, opt, &models);
    std::printf("%-10s %8.2f %8.2f %8.2f %10.2f\n", r.balancer_name.c_str(),
                r.imf_qps, r.imf_rpc, r.imf_inodes, r.imf_busy);
    csv.field(r.balancer_name)
        .field(r.imf_qps)
        .field(r.imf_rpc)
        .field(r.imf_inodes)
        .field(r.imf_busy);
    csv.endrow();
    if (spec == "f-hash") fhash_busy = r.imf_busy;
    if (spec == "origami") origami_busy = r.imf_busy;
  }

  if (!opt.policy.empty()) {
    const auto r = bench::run_policy(opt.policy, trace, opt, &models);
    std::printf("%-10s %8.2f %8.2f %8.2f %10.2f\n", r.balancer_name.c_str(),
                r.imf_qps, r.imf_rpc, r.imf_inodes, r.imf_busy);
    csv.field(r.balancer_name)
        .field(r.imf_qps)
        .field(r.imf_rpc)
        .field(r.imf_inodes)
        .field(r.imf_busy);
    csv.endrow();
  }

  if (fhash_busy > 0) {
    std::printf("\norigami BusyTime imbalance vs f-hash: %+.1f%%  "
                "(paper: -48.3%%)\n",
                100.0 * (origami_busy / fhash_busy - 1.0));
  }
  std::printf("\npaper shape: f-hash most even on QPS/RPC/Inodes; origami "
              "lowest on BusyTime;\nml-tree highest on BusyTime (idle MDSs "
              "from conservative migration).\n");
  bench::close_csv(csv);
  return 0;
}
