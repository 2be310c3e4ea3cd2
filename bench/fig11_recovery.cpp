// Beyond-paper Figure 11 — durable recovery under a crash-rate sweep.
//
// Replays Trace-RW for the hash baselines and Origami while sweeping the
// per-MDS per-epoch crash probability. Every crashed MDS leaves a torn
// journal tail, its fragments fail over to survivors, and the survivors
// replay its metadata journal before serving the absorbed fragments — so
// recovery is a priced window, not an instantaneous flip. The figure
// reports the mean journal-replay window, the request time spent queued
// behind recovery, fencing volume, and the p99 degradation relative to the
// same strategy's crash-free run.
//
// Every run is audited post-hoc by the NamespaceInvariantChecker (I1-I6);
// a violation fails the bench loudly rather than producing a pretty CSV.

#include <cstdio>

#include "bench_common.hpp"
#include "origami/common/csv.hpp"
#include "origami/fault/fault.hpp"
#include "origami/recovery/invariants.hpp"

using namespace origami;

namespace {

constexpr double kCrashRates[] = {0.0, 0.02, 0.05, 0.10};

constexpr const char* kPolicies[] = {"c-hash", "f-hash", "origami"};

cluster::ReplayOptions options_for(const cluster::ReplayOptions& base,
                                   double crash_prob) {
  cluster::ReplayOptions opt = base;
  fault::FaultPlan& plan = opt.faults;
  plan.seed = 2027;
  plan.crash_prob = crash_prob;
  plan.crash_recovery = sim::millis(400);
  plan.rpc_loss_prob = 0.0005;  // keeps retry machinery warm at every rate
  opt.retry.max_retries = 5;
  opt.retry.timeout = sim::millis(2);
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Fig. 11 — journaled recovery vs crash rate ===\n\n");
  const wl::Trace trace = bench::standard_rw(/*seed=*/1, /*ops=*/150'000);
  // Shared CLI vocabulary: flags tune the swept configuration (--mds,
  // --clients, ...); the crash-rate sweep then overwrites the crash knobs.
  const cluster::ReplayOptions base =
      bench::options_from_argv(argc, argv, bench::paper_options());

  std::printf("training ML models on a sibling run (seed 99)...\n\n");
  const auto models = bench::train_for(
      bench::standard_rw(/*seed=*/99, /*ops=*/150'000), base);

  common::CsvWriter csv = bench::open_csv("fig11", "recovery");
  csv.header({"strategy", "crash_prob", "steady_throughput_ops", "p50_rct_us",
              "p99_rct_us", "p99_degradation", "crashes", "journal_replays",
              "journal_replayed_records", "mean_replay_window_ms",
              "recovery_queue_s", "fenced_rejections", "prepared_migrations",
              "committed_migrations", "aborted_migrations", "failed_ops",
              "invariants_ok"});

  int violations = 0;
  for (const char* spec : kPolicies) {
    double clean_p99 = 0.0;
    for (double rate : kCrashRates) {
      const auto r =
          bench::run_policy(spec, trace, options_for(base, rate), &models);
      if (rate == 0.0) clean_p99 = r.p99_latency_us;
      const double degradation =
          clean_p99 > 0 ? r.p99_latency_us / clean_p99 : 0.0;
      const auto& f = r.faults;
      const double mean_window_ms =
          f.journal_replays > 0
              ? sim::to_seconds(f.recovery_window_time) * 1e3 /
                    static_cast<double>(f.journal_replays)
              : 0.0;
      bool ok = true;
      if (r.ledger) {
        const auto report =
            recovery::NamespaceInvariantChecker::check(trace.tree, *r.ledger);
        ok = report.ok();
        if (!ok) {
          ++violations;
          std::printf("INVARIANT VIOLATION (%s, crash p=%.2f):\n%s",
                      r.balancer_name.c_str(), rate,
                      report.to_string().c_str());
        }
      }
      std::printf("%-9s crash p=%.2f  %9.0f ops/s  p99 %9.1fus (%.2fx)  "
                  "%2lu crashes  %2lu replays (mean %6.2fms)  "
                  "queued %6.2fs  fenced %4lu  2pc %lu/%lu\n",
                  r.balancer_name.c_str(), rate, r.steady_throughput_ops,
                  r.p99_latency_us, degradation,
                  static_cast<unsigned long>(f.crashes),
                  static_cast<unsigned long>(f.journal_replays),
                  mean_window_ms, sim::to_seconds(f.recovery_queue_time),
                  static_cast<unsigned long>(f.fenced_rejections),
                  static_cast<unsigned long>(f.prepared_migrations),
                  static_cast<unsigned long>(f.committed_migrations));
      csv.field(r.balancer_name)
          .field(rate)
          .field(r.steady_throughput_ops)
          .field(r.p50_latency_us)
          .field(r.p99_latency_us)
          .field(degradation)
          .field(f.crashes)
          .field(f.journal_replays)
          .field(f.journal_replayed_records)
          .field(mean_window_ms)
          .field(sim::to_seconds(f.recovery_queue_time))
          .field(f.fenced_rejections)
          .field(f.prepared_migrations)
          .field(f.committed_migrations)
          .field(f.aborted_migrations)
          .field(f.failed_ops)
          .field(std::uint64_t{ok ? 1u : 0u});
      csv.endrow();
    }
    std::printf("\n");
  }

  if (violations > 0) {
    std::printf("FAILED: %d run(s) violated namespace invariants\n",
                violations);
    return 1;
  }
  std::printf("all runs audited: I1-I6 hold under every crash rate. "
              "CSV: fig11_recovery.csv\n");
  bench::close_csv(csv);
  return 0;
}
