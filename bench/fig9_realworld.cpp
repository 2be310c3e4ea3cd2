// Reproduces Figure 9 (§5.6, "Real-world Workload Results"): aggregate
// throughput for the three real-world-style traces (Read-Write, Read-Only,
// Write-Intensive), first metadata-only (Fig. 9a), then with the data path
// enabled (Fig. 9b, end-to-end).
//
// Paper shape: origami wins every trace; largest margin on RW (+73.3% over
// the runner-up), smallest on WI (+12.5%, the hardest trace to balance);
// end-to-end throughput sits below metadata-only throughput.

#include <cstdio>
#include <functional>

#include "bench_common.hpp"
#include "origami/common/csv.hpp"

using namespace origami;

int main() {
  std::printf("=== Fig. 9 — three real-world workloads ===\n\n");
  const cluster::ReplayOptions base = bench::paper_options();

  struct Workload {
    const char* name;
    std::function<wl::Trace(std::uint64_t)> make;
  };
  const Workload workloads[] = {
      {"Trace-RW", [](std::uint64_t s) { return bench::standard_rw(s); }},
      {"Trace-RO", [](std::uint64_t s) { return bench::standard_ro(s); }},
      {"Trace-WI", [](std::uint64_t s) { return bench::standard_wi(s); }},
  };

  common::CsvWriter csv = bench::open_csv("fig9", "realworld");
  csv.header({"trace", "strategy", "meta_throughput_ops",
              "e2e_throughput_ops"});

  for (const Workload& w : workloads) {
    std::printf("-- %s --\n", w.name);
    const wl::Trace eval = w.make(/*seed=*/1);
    // Per-family model, trained on a different seed of the same family.
    const auto models = bench::train_for(w.make(/*seed=*/99), base);

    std::printf("%-10s %16s %16s\n", "strategy", "meta-only ops/s",
                "end-to-end ops/s");
    double best_meta_baseline = 0.0;
    double origami_meta = 0.0;
    for (const std::string& spec : bench::kPaperPolicies) {
      cluster::ReplayOptions meta_opt = base;
      if (spec == "single") meta_opt.mds_count = 1;
      const auto meta = bench::run_policy(spec, eval, meta_opt, &models);

      cluster::ReplayOptions data_opt = meta_opt;
      data_opt.data_path = true;
      // A deliberately tight data tier (the paper notes production would
      // provision more): 5 servers x 4 slots at ~0.5 ms/request.
      data_opt.data_params.slots_per_server = 4;
      data_opt.data_params.base_latency = sim::micros(500);
      data_opt.data_params.bytes_per_second = 6e8;
      const auto e2e = bench::run_policy(spec, eval, data_opt, &models);

      std::printf("%-10s %16.0f %16.0f\n", meta.balancer_name.c_str(),
                  meta.steady_throughput_ops, e2e.steady_throughput_ops);
      csv.field(w.name)
          .field(meta.balancer_name)
          .field(meta.steady_throughput_ops)
          .field(e2e.steady_throughput_ops);
      csv.endrow();

      if (spec == "origami") {
        origami_meta = meta.steady_throughput_ops;
      } else if (spec != "single") {
        best_meta_baseline =
            std::max(best_meta_baseline, meta.steady_throughput_ops);
      }
    }
    if (best_meta_baseline > 0) {
      std::printf("origami vs best baseline (metadata): %+.1f%%\n\n",
                  100.0 * (origami_meta / best_meta_baseline - 1.0));
    }
  }

  std::printf("paper reference: origami beats the 2nd-best baseline by "
              "73.3%% (RW), 54.3%% (RO),\n12.5%% (WI) on metadata; 1.11-1.37x "
              "end-to-end; WI is hardest (drifting hotspots).\n");
  bench::close_csv(csv);
  return 0;
}
