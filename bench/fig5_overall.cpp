// Reproduces Figure 5 (§5.2, "Overall Performance") on Trace-RW:
//  (a) aggregate metadata throughput with 50 clients saturating 5 MDSs,
//  (b) average operation latency with a single client thread.
//
// Paper shape: throughput origami > c-hash > ml-tree > f-hash > single
// (3.86x / 2.23x / 1.89x / ~1.54x of single); latency single < origami
// (+24.2%) < ml-tree (+29.3%) < c-hash (+43.9%) < f-hash (+89.1%).

#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "origami/common/csv.hpp"
#include "origami/policy/registry.hpp"

using namespace origami;

int main(int argc, char** argv) {
  std::printf("=== Fig. 5 — overall performance on Trace-RW ===\n\n");
  const wl::Trace trace = bench::standard_rw(/*seed=*/1);
  const cluster::ReplayOptions opt =
      bench::options_from_argv(argc, argv, bench::paper_options());
  if (!opt.policy.empty()) {
    // Validate before the expensive training step so a typo fails fast.
    if (auto ok = policy::Registry::builtin().validate(opt.policy);
        !ok.is_ok()) {
      std::fprintf(stderr, "error: %s\n", ok.to_string().c_str());
      return 2;
    }
  }

  std::printf("training ML models on a sibling run (seed 99)...\n\n");
  const auto models =
      bench::train_for(bench::standard_rw(/*seed=*/99), opt);

  common::CsvWriter csv = bench::open_csv("fig5", "overall");
  csv.header({"strategy", "agg_throughput_ops", "speedup_vs_single",
              "latency_1client_us", "latency_increase_pct", "rpc_per_req"});

  double single_tput = 0.0;
  double single_lat = 0.0;
  std::printf("%-10s %14s %9s %14s %10s %9s\n", "strategy", "agg ops/s",
              "vs 1MDS", "1-client lat", "vs 1MDS", "RPC/req");

  for (const std::string spec : bench::kPaperPolicies) {
    cluster::ReplayOptions run_opt = opt;
    if (spec == "single") run_opt.mds_count = 1;
    // (a) saturated throughput.
    const auto hot = bench::run_policy(spec, trace, run_opt, &models);
    // (b) single-client latency over the converged partition (the paper
    // re-runs with one thread after rebalancing has settled).
    const auto cold = bench::run_latency_probe(trace, opt, hot);

    if (spec == "single") {
      single_tput = hot.steady_throughput_ops;
      single_lat = cold.mean_latency_us;
    }
    const double speedup = hot.steady_throughput_ops / single_tput;
    const double lat_pct =
        100.0 * (cold.mean_latency_us / single_lat - 1.0);
    std::printf("%-10s %14.0f %8.2fx %12.1fus %+9.1f%% %9.3f\n",
                hot.balancer_name.c_str(), hot.steady_throughput_ops, speedup,
                cold.mean_latency_us, lat_pct, hot.rpc_per_request);
    csv.field(hot.balancer_name)
        .field(hot.steady_throughput_ops)
        .field(speedup)
        .field(cold.mean_latency_us)
        .field(lat_pct)
        .field(hot.rpc_per_request);
    csv.endrow();
  }

  if (!opt.policy.empty()) {
    // Extra facet: the requested registry policy, same methodology.
    const auto hot = bench::run_policy(opt.policy, trace, opt, &models);
    const auto cold = bench::run_latency_probe(trace, opt, hot);
    const double speedup = hot.steady_throughput_ops / single_tput;
    const double lat_pct = 100.0 * (cold.mean_latency_us / single_lat - 1.0);
    std::printf("%-10s %14.0f %8.2fx %12.1fus %+9.1f%% %9.3f\n",
                hot.balancer_name.c_str(), hot.steady_throughput_ops, speedup,
                cold.mean_latency_us, lat_pct, hot.rpc_per_request);
    csv.field(hot.balancer_name)
        .field(hot.steady_throughput_ops)
        .field(speedup)
        .field(cold.mean_latency_us)
        .field(lat_pct)
        .field(hot.rpc_per_request);
    csv.endrow();
  }

  std::printf("\npaper reference (Fig. 5): single 19.4k/s; c-hash 2.23x; "
              "f-hash -31%% vs c-hash;\nml-tree 1.89x; origami 3.86x. "
              "Latency: +43.9%% / +89.1%% / +29.3%% / +24.2%%.\n");
  bench::close_csv(csv);
  return 0;
}
