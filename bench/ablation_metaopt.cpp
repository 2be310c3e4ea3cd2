// Ablation: Algorithm 1 itself.
//  (1) Greedy vs exhaustive enumeration on small namespaces — measures the
//      empirical sub-optimality gap that Theorem 1 bounds by Δ.
//  (2) Search-cost scaling with the candidate pool size.

#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "origami/common/csv.hpp"
#include "origami/common/rng.hpp"
#include "origami/common/zipf.hpp"
#include "origami/core/meta_opt.hpp"

using namespace origami;

namespace {

/// A namespace with `n` sibling subtrees under /root, with random loads.
struct Instance {
  fsns::DirTree tree;
  std::vector<fsns::NodeId> subtrees;
  std::vector<wl::MetaOp> ops;
};

Instance make_instance(common::Xoshiro256& rng, int subtrees, int files_each,
                       std::uint64_t ops_total) {
  Instance inst;
  std::vector<std::vector<fsns::NodeId>> files(subtrees);
  for (int i = 0; i < subtrees; ++i) {
    const fsns::NodeId d =
        inst.tree.add_dir(fsns::kRootNode, "s" + std::to_string(i));
    inst.subtrees.push_back(d);
    for (int f = 0; f < files_each; ++f) {
      files[static_cast<std::size_t>(i)].push_back(
          inst.tree.add_file(d, "f" + std::to_string(f)));
    }
  }
  inst.tree.finalize();
  // Random weights per subtree.
  std::vector<double> weights(static_cast<std::size_t>(subtrees));
  for (auto& w : weights) w = rng.uniform_double() + 0.05;
  common::AliasTable pick(weights);
  for (std::uint64_t i = 0; i < ops_total; ++i) {
    const std::size_t s = pick(rng);
    inst.ops.push_back({fsns::OpType::kStat,
                        files[s][rng.uniform(files[s].size())],
                        fsns::kInvalidNode, 0});
  }
  return inst;
}

sim::SimTime jct_of(const Instance& inst, const mds::PartitionMap& map,
                    const cost::CostModel& model) {
  return core::evaluate_window(inst.ops, inst.tree, map, model, true, 2).jct();
}

}  // namespace

int main() {
  std::printf("=== Ablation — Meta-OPT greedy vs exhaustive ===\n\n");
  const cost::CostModel model;
  common::Xoshiro256 rng(2024);

  // ---- (1) sub-optimality gap on exhaustively-solvable instances --------
  common::CsvWriter csv = bench::open_csv("ablation_metaopt", "gap");
  csv.header({"instance", "jct_base_ms", "jct_greedy_ms", "jct_optimal_ms",
              "gap_pct"});
  double worst_gap = 0.0;
  constexpr int kInstances = 30;
  constexpr int kSubtrees = 8;  // 2^8 subsets — exhaustively enumerable
  for (int i = 0; i < kInstances; ++i) {
    Instance inst = make_instance(rng, kSubtrees, 10, 4000);
    mds::PartitionMap map(inst.tree, 2);

    core::MetaOptParams p;
    p.min_subtree_ops = 1;
    p.stop_threshold = sim::micros(100);
    core::MetaOpt engine(model, p);
    auto decisions = engine.optimize(inst.ops, inst.tree, map);
    mds::PartitionMap greedy = map;
    for (const auto& d : decisions) greedy.migrate(d.subtree, d.from, d.to);
    const sim::SimTime jct_greedy = jct_of(inst, greedy, model);

    // Exhaustive: every subset of subtrees moved to MDS 1.
    sim::SimTime jct_best = jct_of(inst, map, model);
    for (unsigned mask = 1; mask < (1u << kSubtrees); ++mask) {
      mds::PartitionMap alt = map;
      for (int s = 0; s < kSubtrees; ++s) {
        if (mask & (1u << s)) {
          alt.migrate(inst.subtrees[static_cast<std::size_t>(s)], 0, 1);
        }
      }
      jct_best = std::min(jct_best, jct_of(inst, alt, model));
    }
    const sim::SimTime jct_base = jct_of(inst, map, model);
    const double gap =
        100.0 * static_cast<double>(jct_greedy - jct_best) /
        static_cast<double>(jct_best);
    worst_gap = std::max(worst_gap, gap);
    csv.field(static_cast<std::int64_t>(i))
        .field(static_cast<double>(jct_base) / 1e6)
        .field(static_cast<double>(jct_greedy) / 1e6)
        .field(static_cast<double>(jct_best) / 1e6)
        .field(gap);
    csv.endrow();
  }
  std::printf("(1) %d random 8-subtree instances, 2 MDSs:\n"
              "    worst greedy-vs-optimal JCT gap: %.2f%%  (Theorem 1 "
              "bounds the benefit gap by Δ)\n\n",
              kInstances, worst_gap);

  // ---- (2) search-cost scaling ------------------------------------------
  std::printf("(2) Algorithm-1 wall time vs candidate-pool size "
              "(5 MDSs, 60k-op window):\n");
  common::CsvWriter scale = bench::open_csv("ablation_metaopt", "scaling");
  scale.header({"candidates", "millis"});
  const wl::Trace trace = bench::standard_rw(1, 60'000);
  mds::PartitionMap map(trace.tree, 5);
  for (std::size_t cands : {64u, 256u, 1024u, 4096u}) {
    core::MetaOptParams p;
    p.min_subtree_ops = 1;
    p.max_candidates = cands;
    core::MetaOpt engine(model, p);
    const auto t0 = std::chrono::steady_clock::now();
    (void)engine.optimize(trace.ops, trace.tree, map);
    const auto ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    std::printf("    %5zu candidates: %8.1f ms\n", cands, ms);
    scale.field(static_cast<std::uint64_t>(cands)).field(ms);
    scale.endrow();
  }
  std::printf("\nexpected: near-zero optimality gap on separable instances; "
              "sub-second searches\neven at the full candidate pool (the "
              "\"quickly explore\" claim of the abstract).\n");
  bench::close_csv(csv);
  bench::close_csv(scale);
  return 0;
}
