// Beyond-paper Figure 10 — graceful degradation under faults.
//
// Replays Trace-RW for every §5.1 strategy under an *identical* seeded fault
// schedule (fail-stop crashes, straggler windows, RPC loss) and reports how
// each balancer degrades: completion-time percentiles, retries, failed
// operations, and failover volume. The crash/straggler windows are keyed by
// (fault seed, epoch, MDS), so every strategy faces exactly the same outages
// at the same instants; only the partition each outage hits differs.
//
// A second pass with every fault probability at zero is emitted alongside as
// the "clean" baseline, which doubles as a regression check that the fault
// layer is a strict no-op when disabled.

#include <cstdio>

#include "bench_common.hpp"
#include "origami/common/csv.hpp"
#include "origami/fault/fault.hpp"

using namespace origami;

namespace {

cluster::ReplayOptions faulty_options(const cluster::ReplayOptions& clean) {
  cluster::ReplayOptions opt = clean;
  fault::FaultPlan& plan = opt.faults;
  plan.seed = 2026;
  plan.crash_prob = 0.05;       // per-MDS per-epoch
  plan.crash_recovery = sim::millis(400);
  plan.straggler_prob = 0.06;
  plan.straggler_slow = 4.0;
  plan.straggler_duration = sim::millis(300);
  plan.rpc_loss_prob = 0.0005;  // per one-way message
  plan.rpc_corrupt_prob = 0.0001;
  opt.retry.max_retries = 5;
  opt.retry.timeout = sim::millis(2);
  return opt;
}

void report(const cluster::RunResult& r, const char* mode,
            common::CsvWriter& csv) {
  std::printf("%-9s %-6s %9.0f ops/s  p50 %8.1fus  p99 %9.1fus  "
              "retries %6lu  failed %4lu  failovers %3lu  aborted-migr %2lu\n",
              r.balancer_name.c_str(), mode, r.steady_throughput_ops,
              r.p50_latency_us, r.p99_latency_us,
              static_cast<unsigned long>(r.faults.retries),
              static_cast<unsigned long>(r.faults.failed_ops),
              static_cast<unsigned long>(r.faults.failovers),
              static_cast<unsigned long>(r.faults.aborted_migrations));
  csv.field(r.balancer_name)
      .field(std::string(mode))
      .field(r.steady_throughput_ops)
      .field(r.p50_latency_us)
      .field(r.p99_latency_us)
      .field(r.faults.retries)
      .field(r.faults.timeouts)
      .field(r.faults.failed_ops)
      .field(r.faults.failovers)
      .field(r.faults.failover_dirs)
      .field(r.faults.aborted_migrations)
      .field(sim::to_seconds(r.faults.time_down))
      .field(sim::to_seconds(r.faults.time_degraded));
  csv.endrow();
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Fig. 10 — robustness under MDS crashes, stragglers and "
              "RPC loss ===\n\n");
  const wl::Trace trace = bench::standard_rw(/*seed=*/1);
  // Shared CLI vocabulary: --mds/--clients/--epoch-ms etc. adjust the clean
  // baseline; the fault preset layers on top so both modes see the tweak.
  const cluster::ReplayOptions clean =
      bench::options_from_argv(argc, argv, bench::paper_options());
  const cluster::ReplayOptions faulty = faulty_options(clean);

  std::printf("training ML models on a sibling run (seed 99)...\n\n");
  const auto models = bench::train_for(bench::standard_rw(/*seed=*/99), clean);

  common::CsvWriter csv = bench::open_csv("fig10", "robustness");
  csv.header({"strategy", "mode", "steady_throughput_ops", "p50_rct_us",
              "p99_rct_us", "retries", "timeouts", "failed_ops", "failovers",
              "failover_dirs", "aborted_migrations", "time_down_s",
              "time_degraded_s"});

  for (const std::string& spec : bench::kPaperPolicies) {
    cluster::ReplayOptions clean_opt = clean;
    cluster::ReplayOptions faulty_opt = faulty;
    if (spec == "single") clean_opt.mds_count = faulty_opt.mds_count = 1;
    const auto base = bench::run_policy(spec, trace, clean_opt, &models);
    report(base, "clean", csv);
    const auto hurt = bench::run_policy(spec, trace, faulty_opt, &models);
    report(hurt, "faulty", csv);
    const double slowdown =
        base.p99_latency_us > 0 ? hurt.p99_latency_us / base.p99_latency_us
                                : 0.0;
    std::printf("          p99 degradation %.2fx\n\n", slowdown);
  }

  std::printf("every strategy saw the identical seeded fault schedule "
              "(seed 2026): crash p=0.05/epoch,\nstraggler p=0.06/epoch "
              "(4x slow), RPC loss 5e-4. CSV: fig10_robustness.csv\n");
  bench::close_csv(csv);
  return 0;
}
