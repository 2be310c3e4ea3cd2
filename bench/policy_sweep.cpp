#include "policy_sweep.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "table.hpp"
#include "origami/common/csv.hpp"
#include "origami/engine/observer.hpp"
#include "origami/fault/fault.hpp"
#include "origami/fs/live_replay.hpp"
#include "origami/policy/registry.hpp"
#include "origami/recovery/invariants.hpp"

namespace origami::bench {

namespace {

/// Collects the per-epoch counter distribution and the arrival seam off the
/// observer bus: issued ops and the stamped arrival span show whether the
/// engine really drove issuance through the trace's timestamps.
class SweepObserver final : public engine::Observer {
 public:
  void on_arrival(const engine::ArrivalEvent& ev) override {
    ++issued;
    last_at = std::max(last_at, ev.at);
  }
  void on_epoch_end(const cluster::EpochMetrics& em,
                    const engine::EpochCounters& delta) override {
    (void)em;
    if (delta.committed_migrations > 0) ++epochs_with_commits;
    max_epoch_aborts = std::max(max_epoch_aborts, delta.aborted_migrations);
  }
  void on_migration_phase(const engine::MigrationPhaseEvent& ev) override {
    using Phase = engine::MigrationPhaseEvent::Phase;
    if (ev.phase == Phase::kCommit) ++commits;
    if (ev.phase == Phase::kAbort) ++aborts;
  }

  std::uint64_t issued = 0;
  sim::SimTime last_at = 0;
  std::uint64_t epochs_with_commits = 0;
  std::uint64_t max_epoch_aborts = 0;
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
};

cluster::ReplayOptions faulted(const cluster::ReplayOptions& base) {
  cluster::ReplayOptions opt = with_crashes(base, 0.05);
  opt.recovery.commit_mode = recovery::CommitMode::kAsync;
  opt.recovery.commit_window = sim::millis(1.0);
  opt.recovery.commit_batch = 1024;
  return opt;
}

}  // namespace

int run_policy_sweep(const SweepPreset& preset) {
  const policy::Registry& registry = policy::Registry::builtin();
  // A column that a mode does not measure reads 0.
  Table t(preset.figure, preset.bench,
          {{"workload", 0, 6}, {"policy", 0, 12}, {"mode", 0, 12},
           {"arrival"}, {"servers"}, {"throughput_ops", 0},
           {"p99_latency_us", 1}, {"imbalance", 2}, {"issued_ops"},
           {"arrival_span_s", 2}, {"migrations"}, {"committed_migrations"},
           {"aborted_migrations"}, {"fenced_rejections"}, {"crashes"},
           {"epochs_with_commits"}, {"max_epoch_aborts"}, {"invariants_ok"}});

  int violations = 0;
  std::string workload_names;
  for (const SweepWorkload& w : preset.workloads) {
    workload_names += (workload_names.empty() ? "" : ",") + w.name;
    std::printf("--- workload %s: training models on a sibling seed ---\n",
                w.name.c_str());
    // One model pair per workload, shared by every policy that wants one.
    const core::TrainedModels models =
        train_for(w.training, preset.base, preset.smoke ? 40 : 120);

    // "fixed" replays a converged partition; the f-hash clean run (which
    // the registry orders before "fixed") provides a deterministic one.
    cluster::RunResult converged;

    for (const policy::Entry& e : registry.entries()) {
      policy::PolicyContext ctx;
      ctx.benefit_model = models.benefit;
      ctx.popularity_model = models.popularity;
      ctx.converged = e.name == "fixed" ? &converged : nullptr;

      for (const char* mode : {"epoch-clean", "epoch-faults"}) {
        const bool with_faults = mode == std::string("epoch-faults");
        cluster::ReplayOptions opt =
            with_faults ? faulted(preset.base) : preset.base;
        if (e.single_mds) opt.mds_count = 1;
        SweepObserver seen;
        opt.observers.push_back(&seen);
        ctx.options = &opt;
        auto made = registry.make(e.name, ctx);
        if (!made.is_ok()) {
          std::fprintf(stderr, "error: %s\n",
                       made.status().to_string().c_str());
          return 2;
        }
        const auto balancer = std::move(made).value();
        const auto r = cluster::replay_trace(w.trace, opt, *balancer);
        if (!with_faults && e.name == "f-hash") converged = r;

        bool invariants_ok = true;
        if (with_faults && r.ledger) {
          const auto report = recovery::NamespaceInvariantChecker::check(
              w.trace.tree, *r.ledger);
          invariants_ok = report.ok();
          if (invariants_ok) {
            std::printf("  [%s/%s] invariants: I1-I8 hold\n", w.name.c_str(),
                        e.name.c_str());
          } else {
            ++violations;
            std::printf("  [%s/%s] invariants: VIOLATED\n%s\n",
                        w.name.c_str(), e.name.c_str(),
                        report.to_string().c_str());
          }
        }
        t.row({w.name, e.name, mode, r.arrival_name, r.mds_count,
               r.steady_throughput_ops, r.p99_latency_us, r.imf_busy,
               seen.issued, sim::to_seconds(seen.last_at), r.migrations,
               seen.commits, seen.aborts, r.faults.fenced_rejections,
               r.faults.crashes, seen.epochs_with_commits,
               seen.max_epoch_aborts,
               std::uint64_t{invariants_ok ? 1u : 0u}});
      }

      if (preset.live_epoch_ops > 0 && e.make_live != nullptr) {
        // Live mode: the real service under a light fault plan, the policy
        // narrating its two-phase moves through the LiveFaultContext.
        ctx.options = &preset.base;
        auto made = registry.make_live(e.name, ctx);
        if (!made.is_ok()) {
          std::fprintf(stderr, "error: %s\n",
                       made.status().to_string().c_str());
          return 2;
        }
        const auto live = std::move(made).value();
        fs::OrigamiFs::Options fopt;
        fopt.shards = preset.base.mds_count;
        fs::OrigamiFs fsys(fopt);
        fs::LiveReplayOptions lro;
        lro.epoch_ops = preset.live_epoch_ops;
        lro.on_epoch = [&live](fs::OrigamiFs& f, fs::LiveFaultContext& c) {
          return live->on_epoch(f, c);
        };
        lro.faults.seed = 7;
        lro.faults.crash_prob = 0.05;
        lro.faults.crash_recovery = sim::millis(200);
        lro.retry.max_retries = 4;
        const auto r = fs::replay_on_live(w.trace, fsys, lro);

        // lro keeps the live plane's closed loop.
        t.row({w.name, e.name, "live", "closed", preset.base.mds_count,
               r.throughput_ops, r.latency.quantile(0.99) / 1'000.0,
               r.shard_imbalance, std::uint64_t{0}, 0.0, r.migrations,
               r.faults.committed_migrations, r.faults.aborted_migrations,
               r.faults.fenced_rejections, r.faults.crashes,
               std::uint64_t{0}, std::uint64_t{0}, std::uint64_t{1}});
      }
    }
    std::printf("\n");
  }

  if (violations > 0) {
    std::printf("FAILED: %d run(s) violated namespace invariants\n",
                violations);
    return 1;
  }
  write_report(preset.out_path, preset.bench,
               {{"ops", preset.ops},
                {"smoke", preset.smoke},
                {"policies", registry.entries().size()},
                {"workloads", workload_names}},
               t.csv());
  std::printf("all faulted runs audited: I1-I8 hold across %zu policies x "
              "%zu workloads. CSV: %s, JSON: %s\n",
              registry.entries().size(), preset.workloads.size(),
              t.csv().path().c_str(), preset.out_path.c_str());
  return 0;
}

}  // namespace origami::bench
