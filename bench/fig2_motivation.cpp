// Reproduces Figure 2 (§2.2, "Even Partitioning Considered Harmful"):
// a web-access workload replayed on (a) one MDS and (b) five MDSs with
// even per-directory partitioning. Reports the per-MDS and aggregated
// throughput normalised to the single-MDS setup, and the job completion
// time of both configurations.
//
// Paper shape to match: every individual MDS of the 5-MDS cluster runs
// *below* the single-MDS line; the aggregate gains only ~1.4x; JCT drops
// far less than the 5x hardware would suggest.

#include <cstdio>

#include "bench_common.hpp"
#include "origami/common/csv.hpp"

using namespace origami;

int main() {
  std::printf("=== Fig. 2 — even per-directory partitioning vs one MDS ===\n\n");
  const wl::Trace trace = wl::make_trace_web_motivation(7, 300'000);

  cluster::ReplayOptions opt = bench::paper_options();
  opt.epoch_length = sim::millis(500);

  // (a) single MDS.
  cluster::ReplayOptions single_opt = opt;
  single_opt.mds_count = 1;
  const auto r1 = bench::run_policy("single", trace, single_opt, nullptr);
  // (b) five MDSs, even per-directory partitioning (CephFS-pinning style).
  const auto r5 = bench::run_policy("f-hash", trace, opt, nullptr);

  const double single_tput = r1.steady_throughput_ops;
  common::CsvWriter csv = bench::open_csv("fig2", "throughput");
  csv.header({"epoch", "m1", "m2", "m3", "m4", "m5", "aggregate"});

  std::printf("(a) per-MDS throughput, normalised to the single-MDS setup\n");
  std::printf("%-6s %6s %6s %6s %6s %6s %9s\n", "epoch", "M1", "M2", "M3",
              "M4", "M5", "Aggregate");
  for (std::size_t e = 0; e < r5.epochs.size(); ++e) {
    const auto& em = r5.epochs[e];
    const double secs = sim::to_seconds(em.end - em.start);
    if (secs <= 0) continue;
    double agg = 0;
    std::printf("%-6zu", e);
    csv.field(static_cast<std::uint64_t>(e));
    for (const auto& m : em.mds) {
      const double norm = static_cast<double>(m.ops) / secs / single_tput;
      agg += norm;
      std::printf(" %6.2f", norm);
      csv.field(norm);
    }
    std::printf(" %9.2f\n", agg);
    csv.field(agg);
    csv.endrow();
  }

  const double agg_gain = r5.steady_throughput_ops / single_tput;
  std::printf("\naggregate gain from adding 4 MDSs: %.2fx  "
              "(paper: ~1.4x)\n", agg_gain);

  std::printf("\n(b) job completion time for the full trace\n");
  std::printf("  1 MDS : %8.2f s\n", sim::to_seconds(r1.makespan));
  std::printf("  5 MDS : %8.2f s  (%.0f%% reduction; ideal would be 80%%)\n",
              sim::to_seconds(r5.makespan),
              100.0 * (1.0 - sim::to_seconds(r5.makespan) /
                                 sim::to_seconds(r1.makespan)));
  std::printf("\nper-request forwarding in (b): %.2f RPCs/request — the "
              "execution overhead\nthat caps each MDS below the single-MDS "
              "line (§2.2).\n", r5.rpc_per_request);

  common::CsvWriter jct = bench::open_csv("fig2", "jct");
  jct.header({"config", "jct_seconds"});
  jct.field("1mds").field(sim::to_seconds(r1.makespan)).endrow();
  jct.field("5mds_even").field(sim::to_seconds(r5.makespan)).endrow();
  bench::close_csv(csv);
  bench::close_csv(jct);
  return 0;
}
