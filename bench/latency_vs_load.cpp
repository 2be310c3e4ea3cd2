// Beyond the paper: the classic open-loop latency-vs-offered-load curve.
// Poisson arrivals at increasing rates against the converged partition of
// each strategy. The knee of each curve is that strategy's usable
// capacity; Origami's knee should sit furthest right (its balanced,
// forwarding-free partition wastes the least capacity).

#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "origami/common/csv.hpp"

using namespace origami;

int main() {
  std::printf("=== Latency vs offered load (Trace-RW, open loop) ===\n\n");
  const wl::Trace trace = bench::standard_rw(/*seed=*/1);
  const cluster::ReplayOptions base = bench::paper_options();
  const auto models = bench::train_for(bench::standard_rw(/*seed=*/99), base);

  common::CsvWriter csv = bench::open_csv("latency_vs_load", "curves");
  csv.header({"strategy", "offered_kops", "p50_us", "p99_us", "completed"});

  constexpr const char* kPolicies[] = {"c-hash", "f-hash", "origami"};
  constexpr double kRatesK[] = {10, 20, 30, 40, 50, 60};

  std::printf("%-10s", "strategy");
  for (double r : kRatesK) std::printf("   @%3.0fk p99", r);
  std::printf("   (us)\n");

  for (const char* spec : kPolicies) {
    // Converge the partition under closed-loop saturation first.
    const auto hot = bench::run_policy(spec, trace, base, &models);
    std::printf("%-10s", hot.balancer_name.c_str());

    for (double rate_k : kRatesK) {
      cluster::ReplayOptions opt = base;
      opt.arrival =
          "open:rate=" + std::to_string(static_cast<int>(rate_k * 1000));
      opt.loop_trace = true;
      opt.time_limit = sim::seconds(4);
      cluster::FixedPartitionBalancer frozen(hot);
      const auto r = cluster::replay_trace(trace, opt, frozen);
      std::printf(" %10.0f", r.p99_latency_us);
      csv.field(hot.balancer_name)
          .field(rate_k)
          .field(r.p50_latency_us)
          .field(r.p99_latency_us)
          .field(r.completed_ops);
      csv.endrow();
    }
    std::printf("\n");
  }

  std::printf("\nexpected: every curve explodes past its capacity knee; "
              "origami's knee sits at the\nhighest offered load, f-hash's "
              "at the lowest.\n");
  bench::close_csv(csv);
  return 0;
}
