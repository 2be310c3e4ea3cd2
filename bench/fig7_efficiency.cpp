// Reproduces Figure 7 (§5.5, "Higher Efficiency"): per-MDS efficiency —
// the fraction of time spent actually processing metadata, normalised to
// the single-MDS setup — over the first minutes of each strategy.
//
// Paper shape: hash strategies run parallel from the start but at clearly
// sub-single efficiency (forwarded-RPC work); ml-tree pays visible extra
// overhead while rebalancing; origami ramps up while keeping the
// per-MDS efficiency dip minimal.

#include <cstdio>

#include "bench_common.hpp"
#include "origami/common/csv.hpp"

using namespace origami;

int main() {
  std::printf("=== Fig. 7 — efficiency over time on Trace-RW ===\n\n");
  // Loop a 300k-op trace for 3 simulated minutes (the paper's testbed ran
  // 15 wall-clock minutes; virtual time scales freely — shape preserved).
  const wl::Trace trace = bench::standard_rw(/*seed=*/1);
  cluster::ReplayOptions opt = bench::paper_options();
  opt.loop_trace = true;
  opt.time_limit = sim::seconds(180);
  opt.epoch_length = sim::seconds(5);
  opt.warmup_epochs = 2;

  const auto models = bench::train_for(bench::standard_rw(/*seed=*/99),
                                       bench::paper_options());

  // Baseline: the useful-work rate of one saturated MDS. "Efficiency" is
  // each strategy's per-MDS *served-op* rate relative to this — capacity
  // burned on forwarded RPCs or migration transfers does not count as
  // useful work (that is exactly the §5.5 distinction).
  cluster::ReplayOptions single_opt = opt;
  single_opt.mds_count = 1;
  const auto r1 = bench::run_policy("single", trace, single_opt, nullptr);
  double single_rate = 0.0;
  std::size_t n1 = 0;
  for (std::size_t e = 1; e + 1 < r1.epochs.size(); ++e) {
    const auto& em = r1.epochs[e];
    const double span = sim::to_seconds(em.end - em.start);
    if (span <= 0 || em.mds[0].ops == 0) continue;
    single_rate += static_cast<double>(em.mds[0].ops) / span;
    ++n1;
  }
  single_rate /= static_cast<double>(n1);
  std::printf("single-MDS useful rate baseline: %.0f ops/s\n\n", single_rate);

  common::CsvWriter csv = bench::open_csv("fig7", "efficiency");
  csv.header({"strategy", "t_seconds", "efficiency"});

  std::printf("%-8s", "t(s)");
  // Registry policy specs (the benches' historical parameterisation;
  // identical construction path as origami_sim --policy).
  constexpr const char* kPolicies[] = {"c-hash", "f-hash",
                                       "ml-tree:min-ops=8", "origami"};
  std::vector<std::vector<double>> series(4);
  std::vector<double> times;
  for (std::size_t si = 0; si < 4; ++si) {
    const auto r = bench::run_policy(kPolicies[si], trace, opt, &models);
    for (std::size_t e = 0; e < r.epochs.size(); ++e) {
      const auto& em = r.epochs[e];
      const double span = static_cast<double>(em.end - em.start);
      if (span <= 0) continue;
      // Mean per-MDS served-op rate, normalised to the single-MDS rate.
      double ops = 0.0;
      for (const auto& m : em.mds) ops += static_cast<double>(m.ops);
      const double rate = ops / sim::to_seconds(em.end - em.start) /
                          static_cast<double>(em.mds.size());
      const double eff = rate / single_rate;
      series[si].push_back(eff);
      if (si == 0) times.push_back(sim::to_seconds(em.end));
      csv.field(r.balancer_name)
          .field(sim::to_seconds(em.end))
          .field(eff);
      csv.endrow();
    }
  }

  std::printf(" %9s %9s %9s %9s\n", "c-hash", "f-hash", "ml-tree", "origami");
  for (std::size_t e = 0; e < times.size(); ++e) {
    std::printf("%-8.0f", times[e]);
    for (std::size_t si = 0; si < 4; ++si) {
      if (e < series[si].size()) {
        std::printf(" %9.2f", series[si][e]);
      } else {
        std::printf(" %9s", "-");
      }
    }
    std::printf("\n");
  }

  std::printf("\npaper shape: hash methods flat below 1.0; origami "
              "approaches 1.0 after its\nfirst migrations with only a small "
              "transient dip; ml-tree dips deeper/longer.\n");
  bench::close_csv(csv);
  return 0;
}
