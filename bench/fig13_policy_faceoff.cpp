// Beyond-paper Figure 13 — the policy face-off: every balancing policy in
// `policy::Registry::builtin()` over Trace-RW and Trace-WI under the closed
// loop, epoch-clean, epoch-faults and live (bench/policy_sweep.hpp).
//
// Outputs: fig13_policy_faceoff.csv and a JSON report (--out, default
// BENCH_policy_faceoff.json). --smoke shrinks traces for CI.

#include <cstdio>

#include "bench_common.hpp"
#include "origami/common/flags.hpp"
#include "policy_sweep.hpp"

using namespace origami;

int main(int argc, char** argv) {
  std::printf("=== Fig. 13 — policy face-off across the registry ===\n\n");
  const common::Flags flags(argc, argv);
  bench::SweepPreset p;
  p.figure = "fig13";
  p.bench = "policy_faceoff";
  p.out_path = flags.get("out", "BENCH_policy_faceoff.json");
  p.smoke = flags.get_bool("smoke", false);
  p.ops = p.smoke ? 25'000 : 100'000;
  p.base = bench::options_from_argv(argc, argv, bench::paper_options());
  p.workloads.push_back(
      {"rw", bench::standard_rw(1, p.ops), bench::standard_rw(99, p.ops)});
  p.workloads.push_back(
      {"wi", bench::standard_wi(3, p.ops), bench::standard_wi(99, p.ops)});
  p.live_epoch_ops = p.smoke ? 5'000 : 20'000;
  return bench::run_policy_sweep(p);
}
