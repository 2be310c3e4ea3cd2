// Ablation: the oracle's lookahead window (the known future sequence N of
// Algorithm 1). Short windows see too little load to identify subtrees
// worth moving; beyond a point, more future buys nothing because the
// workload's hotspot dwell time bounds useful foresight.

#include <cstdio>

#include "bench_common.hpp"
#include "origami/common/csv.hpp"

using namespace origami;

int main() {
  std::printf("=== Ablation — Meta-OPT lookahead window (Trace-RW) ===\n\n");
  const wl::Trace trace = bench::standard_rw(/*seed=*/1);

  common::CsvWriter csv = bench::open_csv("ablation_lookahead", "sweep");
  csv.header({"lookahead_ops", "throughput_ops", "migrations"});

  std::printf("%-14s %14s %12s\n", "lookahead", "ops/s", "migrations");
  for (std::uint64_t window : {2'000ULL, 8'000ULL, 20'000ULL, 60'000ULL,
                               120'000ULL, 240'000ULL}) {
    cluster::ReplayOptions opt = bench::paper_options();
    opt.lookahead_ops = window;
    const auto r = bench::run_policy("meta-opt:min-ops=8,stop-us=500", trace,
                                     opt, nullptr);
    std::printf("%10lu ops %14.0f %12lu\n",
                static_cast<unsigned long>(window), r.steady_throughput_ops,
                static_cast<unsigned long>(r.migrations));
    csv.field(window).field(r.steady_throughput_ops).field(r.migrations);
    csv.endrow();
  }

  std::printf("\nexpected: throughput rises with foresight and saturates "
              "once the window covers\na hotspot dwell period.\n");
  bench::close_csv(csv);
  return 0;
}
