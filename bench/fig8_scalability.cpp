// Reproduces Figure 8 (§5.5, "Better Scalability"): aggregate throughput
// as the MDS count grows from 2 to 5, normalised to one MDS.
//
// Paper shape: none of the baselines scales cleanly; origami is the top
// curve and near-linear (≈2.7x at 3 MDSs), flattening slightly at 4-5.

#include <cstdio>

#include "bench_common.hpp"
#include "origami/common/csv.hpp"

using namespace origami;

int main() {
  std::printf("=== Fig. 8 — scalability, 2..5 MDSs on Trace-RW ===\n\n");
  const wl::Trace trace = bench::standard_rw(/*seed=*/1);
  const cluster::ReplayOptions base = bench::paper_options();
  const auto models = bench::train_for(bench::standard_rw(/*seed=*/99), base);

  cluster::ReplayOptions single_opt = base;
  single_opt.mds_count = 1;
  const auto r1 = bench::run_policy("single", trace, single_opt, nullptr);
  const double single = r1.steady_throughput_ops;
  std::printf("1-MDS baseline: %.0f ops/s\n\n", single);

  common::CsvWriter csv = bench::open_csv("fig8", "scalability");
  csv.header({"strategy", "mds", "speedup"});

  // Registry policy specs (same construction path as origami_sim --policy).
  constexpr const char* kPolicies[] = {"c-hash", "f-hash",
                                       "ml-tree:min-ops=8", "origami"};

  std::printf("%-10s %8s %8s %8s %8s\n", "strategy", "2 MDS", "3 MDS",
              "4 MDS", "5 MDS");
  for (const char* spec : kPolicies) {
    std::string shown;
    for (std::uint32_t mds = 2; mds <= 5; ++mds) {
      cluster::ReplayOptions opt = base;
      opt.mds_count = mds;
      const auto r = bench::run_policy(spec, trace, opt, &models);
      if (shown.empty()) {
        shown = r.balancer_name;
        std::printf("%-10s", shown.c_str());
      }
      const double speedup = r.steady_throughput_ops / single;
      std::printf(" %7.2fx", speedup);
      csv.field(r.balancer_name)
          .field(static_cast<std::uint64_t>(mds))
          .field(speedup);
      csv.endrow();
    }
    std::printf("\n");
  }

  std::printf("\npaper shape: origami near-linear (3 MDS ~2.7x); baselines "
              "flatten as balance\nand locality trade off against each "
              "other.\n");
  bench::close_csv(csv);
  return 0;
}
