// Appendix bench (beyond the paper): run the whole Origami loop against
// the *live* OrigamiFS service (real KV shards, real migrations, no cost
// simulation): train a benefit model in the simulator, then let the live
// form of the registry's origami policy drive the live Migrator while a
// Trace-RW replay hammers the shards. Reported balance is measured from
// real per-shard dirent operations.

#include <cstdio>

#include "bench_common.hpp"
#include "origami/common/csv.hpp"
#include "origami/fs/live_replay.hpp"
#include "origami/policy/registry.hpp"

using namespace origami;

namespace {

fs::LiveReplayStats run_live(const wl::Trace& trace,
                             policy::LivePolicy* live) {
  fs::OrigamiFs::Options fopt;
  fopt.shards = 5;
  fs::OrigamiFs fsys(fopt);
  fs::LiveReplayOptions opt;
  opt.epoch_ops = 20'000;
  if (live != nullptr) {
    opt.on_epoch = [live](fs::OrigamiFs& f, fs::LiveFaultContext& c) {
      return live->on_epoch(f, c);
    };
  }
  return fs::replay_on_live(trace, fsys, opt);
}

}  // namespace

int main() {
  std::printf("=== Appendix — the live OrigamiFS service under Trace-RW ===\n\n");
  const wl::Trace trace = bench::standard_rw(1, 200'000);

  std::printf("training the benefit model in the simulator...\n");
  const auto models =
      bench::train_for(bench::standard_rw(99), bench::paper_options());

  common::CsvWriter csv(bench::csv_path("appendix_live", "results"));
  csv.header({"mode", "executed", "failed", "migrations", "imbalance"});

  // Unbalanced: everything stays on shard 0.
  const auto r_none = run_live(trace, nullptr);
  // Balanced: the simulator-trained model drives the live Migrator.
  policy::PolicyContext ctx;
  ctx.benefit_model = models.benefit;
  auto made = policy::Registry::builtin().make_live(
      "origami:min-ops=32,min-benefit=0", ctx);
  if (!made.is_ok()) {
    std::fprintf(stderr, "error: %s\n", made.status().to_string().c_str());
    return 1;
  }
  const auto r_bal = run_live(trace, made.value().get());

  auto report = [&](const char* mode, const fs::LiveReplayStats& r) {
    std::printf("%-12s executed %lu (failed %lu), migrations %lu, "
                "shard-op imbalance %.2f\n  per-shard ops:",
                mode, static_cast<unsigned long>(r.executed),
                static_cast<unsigned long>(r.failed),
                static_cast<unsigned long>(r.migrations), r.shard_imbalance);
    for (auto ops : r.shard_ops) {
      std::printf(" %lu", static_cast<unsigned long>(ops));
    }
    std::printf("\n");
    csv.field(mode)
        .field(r.executed)
        .field(r.failed)
        .field(r.migrations)
        .field(r.shard_imbalance);
    csv.endrow();
  };
  report("unbalanced", r_none);
  report("origami", r_bal);

  std::printf("\nexpected: the unbalanced run serves everything from shard 0 "
              "(imbalance 1.0);\nthe simulator-trained model transfers to the "
              "live service and spreads the\nreal dirent traffic.\n");
  return 0;
}
