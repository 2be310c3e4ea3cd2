// Ablation: the near-root cache depth threshold (§4.2). Depth 0 disables
// the cache; deeper thresholds absorb more of the resolution path (and
// more migration boundaries) at the cost of caching a larger share of the
// namespace — the paper argues depth thresholds covering <1% of metadata
// already solve the near-root hotspot.

#include <cstdio>

#include "bench_common.hpp"
#include "origami/common/csv.hpp"

using namespace origami;

int main() {
  std::printf("=== Ablation — near-root cache depth (Trace-RO, deep paths) ===\n\n");
  const wl::Trace trace = bench::standard_ro(/*seed=*/1);

  // Share of the namespace that falls under each threshold.
  std::vector<std::uint64_t> dirs_at_depth(32, 0);
  for (fsns::NodeId d : trace.tree.directories()) {
    ++dirs_at_depth[std::min<std::uint32_t>(31, trace.tree.depth(d))];
  }

  common::CsvWriter csv = bench::open_csv("ablation_cache_depth", "sweep");
  csv.header({"depth", "cached_namespace_pct", "throughput_ops",
              "rpc_per_req", "stale_hits"});

  std::printf("%-7s %12s %14s %9s %10s\n", "depth", "cached ns", "ops/s",
              "RPC/req", "stale");
  for (std::uint32_t depth : {0u, 1u, 2u, 3u, 4u, 6u, 8u}) {
    cluster::ReplayOptions opt = bench::paper_options();
    opt.cache_enabled = depth > 0;
    opt.cache_depth = depth;

    core::MetaOptParams p;
    p.min_subtree_ops = 8;
    p.stop_threshold = sim::micros(500);
    p.cache_enabled = opt.cache_enabled;
    p.cache_depth = depth;
    core::MetaOptOracleBalancer balancer(cost::CostModel{opt.cost_params}, p,
                                         core::RebalanceTrigger{0.05});
    const auto r = cluster::replay_trace(trace, opt, balancer);

    std::uint64_t cached_dirs = 0;
    for (std::uint32_t d = 0; d < depth && d < dirs_at_depth.size(); ++d) {
      cached_dirs += dirs_at_depth[d];
    }
    const double cached_pct = 100.0 * static_cast<double>(cached_dirs) /
                              static_cast<double>(trace.tree.dir_count());
    std::printf("%-7u %11.2f%% %14.0f %9.3f %10lu\n", depth, cached_pct,
                r.steady_throughput_ops, r.rpc_per_request,
                static_cast<unsigned long>(r.cache.stale));
    csv.field(static_cast<std::uint64_t>(depth))
        .field(cached_pct)
        .field(r.steady_throughput_ops)
        .field(r.rpc_per_request)
        .field(r.cache.stale);
    csv.endrow();
  }

  std::printf("\nexpected: a small threshold already removes the near-root "
              "hotspot (the paper's\n<1%% claim); returns diminish quickly "
              "beyond that.\n");
  bench::close_csv(csv);
  return 0;
}
