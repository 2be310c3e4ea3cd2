// Reproduces Table 2 (§5.4, "Metadata Cache Analysis"): aggregated
// throughput and per-request RPC count for the four balancing strategies,
// with and without the near-root metadata cache. Runs three seeds per cell
// and reports mean ± stddev, as the paper does.
//
// Paper shape: the cache helps everyone; origami gains the most (+100.7%)
// and its with-cache RPC/request is lowest (1.04, i.e. +0.035 extra RPC),
// because most of its migrations land inside the cached near-root region.

#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "origami/common/csv.hpp"
#include "origami/common/histogram.hpp"

using namespace origami;

namespace {

struct Cell {
  common::WelfordStats throughput;
  common::WelfordStats rpc;
};

}  // namespace

int main() {
  std::printf("=== Table 2 — near-root cache ablation on Trace-RW ===\n\n");
  const cluster::ReplayOptions base = bench::paper_options();
  const auto models = bench::train_for(bench::standard_rw(/*seed=*/99), base);

  constexpr const char* kPolicies[] = {"c-hash", "f-hash", "ml-tree:min-ops=8",
                                       "origami"};
  constexpr std::uint64_t kSeeds[] = {1, 21, 41};

  Cell cells[4][2];  // [strategy][cache off/on]
  std::string names[4];
  for (std::size_t si = 0; si < 4; ++si) {
    for (int cache = 0; cache <= 1; ++cache) {
      for (std::uint64_t seed : kSeeds) {
        const wl::Trace trace = bench::standard_rw(seed, 200'000);
        cluster::ReplayOptions opt = base;
        opt.cache_enabled = cache == 1;
        const auto r = bench::run_policy(kPolicies[si], trace, opt, &models);
        names[si] = r.balancer_name;
        cells[si][cache].throughput.add(r.steady_throughput_ops / 1000.0);
        cells[si][cache].rpc.add(r.rpc_per_request);
      }
    }
  }

  common::CsvWriter csv = bench::open_csv("table2", "cache");
  csv.header({"strategy", "tput_nocache_k", "tput_nocache_sd",
              "tput_cache_k", "tput_cache_sd", "rpc_nocache",
              "rpc_nocache_sd", "rpc_cache", "rpc_cache_sd"});

  std::printf("%-10s | %-23s | %-23s\n", "", "Throughput (k ops/s)",
              "# RPC per request");
  std::printf("%-10s | %10s %12s | %10s %12s\n", "strategy", "w/o cache",
              "w/ cache", "w/o cache", "w/ cache");
  for (std::size_t si = 0; si < 4; ++si) {
    const Cell& off = cells[si][0];
    const Cell& on = cells[si][1];
    std::printf("%-10s | %5.1f±%4.1f  %5.1f±%4.1f   | %5.2f±%4.2f  "
                "%5.2f±%4.2f\n",
                names[si].c_str(), off.throughput.mean(),
                off.throughput.stddev(), on.throughput.mean(),
                on.throughput.stddev(), off.rpc.mean(), off.rpc.stddev(),
                on.rpc.mean(), on.rpc.stddev());
    csv.field(names[si])
        .field(off.throughput.mean())
        .field(off.throughput.stddev())
        .field(on.throughput.mean())
        .field(on.throughput.stddev())
        .field(off.rpc.mean())
        .field(off.rpc.stddev())
        .field(on.rpc.mean())
        .field(on.rpc.stddev());
    csv.endrow();
  }

  std::printf("\npaper reference (Table 2):\n"
              "  c-hash  32.8->46.0k, 2.23->1.54 RPC\n"
              "  f-hash  22.5->30.0k, 2.87->2.27 RPC\n"
              "  ml-tree 26.7->38.6k, 1.62->1.17 RPC\n"
              "  origami 39.3->78.9k, 1.85->1.04 RPC\n");
  bench::close_csv(csv);
  return 0;
}
