// Beyond-paper Figure 15 — the workload-family sweep: every balancing
// policy in `policy::Registry::builtin()` over the two *timed* workload
// families (Trace-Falcon, the FalconFS-style DL data pipeline, and
// Trace-Midas, the MIDAS-style HPC burst workload), replayed with
// `--arrival=trace` so issuance follows each family's native arrival
// timestamps (scan storms, checkpoint barriers, job-burst on/off load),
// epoch-clean and epoch-faults (bench/policy_sweep.hpp).
//
// Outputs: fig15_workload_families.csv and a JSON report (--out, default
// BENCH_workload_families.json). --smoke shrinks traces for CI.

#include <cstdio>
#include <utility>

#include "bench_common.hpp"
#include "origami/common/flags.hpp"
#include "policy_sweep.hpp"

using namespace origami;

int main(int argc, char** argv) {
  std::printf("=== Fig. 15 — workload families (falcon/midas) across the "
              "registry ===\n\n");
  const common::Flags flags(argc, argv);
  bench::SweepPreset p;
  p.figure = "fig15";
  p.bench = "workload_families";
  p.out_path = flags.get("out", "BENCH_workload_families.json");
  p.smoke = flags.get_bool("smoke", false);
  p.ops = p.smoke ? 25'000 : 100'000;

  // The timed families replay their native timestamps, which span a couple
  // of virtual seconds at these op counts — scale the balancing epoch down
  // so the run still crosses dozens of rebalance points (CLI flags land on
  // top and can override).
  cluster::ReplayOptions preset = bench::paper_options();
  preset.epoch_length = sim::millis(50);
  preset.warmup_epochs = 2;
  p.base = bench::options_from_argv(argc, argv, std::move(preset));
  // The whole point of the timed families: issue through their native
  // arrival timestamps (a caller's explicit --arrival still wins).
  if (p.base.arrival.empty()) p.base.arrival = "trace";

  // Models train on a sibling seed of the same family.
  wl::TraceFalconConfig falcon;
  falcon.ops = p.ops;
  wl::TraceFalconConfig falcon_training = falcon;
  falcon_training.seed += 98;
  p.workloads.push_back({"falcon", wl::make_trace_falcon(falcon),
                         wl::make_trace_falcon(falcon_training)});
  wl::TraceMidasConfig midas;
  midas.ops = p.ops;
  wl::TraceMidasConfig midas_training = midas;
  midas_training.seed += 98;
  p.workloads.push_back({"midas", wl::make_trace_midas(midas),
                         wl::make_trace_midas(midas_training)});
  return bench::run_policy_sweep(p);
}
