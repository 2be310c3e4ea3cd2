#include "policy_sweep.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_common.hpp"
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

cluster::ReplayOptions faulted(cluster::ReplayOptions opt) {
  fault::FaultPlan& plan = opt.faults;
  plan.seed = 2027;
  plan.crash_prob = 0.05;
  plan.crash_recovery = sim::millis(400);
  plan.rpc_loss_prob = 0.0005;
  opt.retry.max_retries = 5;
  opt.retry.timeout = sim::millis(2);
  opt.recovery.commit_mode = recovery::CommitMode::kAsync;
  opt.recovery.commit_window = sim::millis(1.0);
  opt.recovery.commit_batch = 1024;
  return opt;
}

/// One CSV row. A column that a mode does not measure reads 0.
struct Row {
  std::string workload;
  std::string policy;
  std::string mode;
  std::string arrival;
  std::uint32_t servers = 0;
  double throughput = 0.0;
  double p99_us = 0.0;
  double imbalance = 0.0;
  std::uint64_t issued = 0;
  double arrival_span_s = 0.0;
  std::uint64_t migrations = 0;
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t fences = 0;
  std::uint64_t crashes = 0;
  std::uint64_t epochs_with_commits = 0;
  std::uint64_t max_epoch_aborts = 0;
  bool invariants_ok = true;
};

void emit(common::CsvWriter& csv, const Row& row) {
  csv.field(row.workload)
      .field(row.policy)
      .field(row.mode)
      .field(row.arrival)
      .field(row.servers)
      .field(row.throughput)
      .field(row.p99_us)
      .field(row.imbalance)
      .field(row.issued)
      .field(row.arrival_span_s)
      .field(row.migrations)
      .field(row.commits)
      .field(row.aborts)
      .field(row.fences)
      .field(row.crashes)
      .field(row.epochs_with_commits)
      .field(row.max_epoch_aborts)
      .field(std::uint64_t{row.invariants_ok ? 1u : 0u});
  csv.endrow();
  std::printf("%-6s %-12s %-12s %9.0f ops/s  p99 %9.1fus  imb %5.2f  "
              "%3lu migr %3lu commit %2lu abort %3lu fence%s\n",
              row.workload.c_str(), row.policy.c_str(), row.mode.c_str(),
              row.throughput, row.p99_us, row.imbalance,
              static_cast<unsigned long>(row.migrations),
              static_cast<unsigned long>(row.commits),
              static_cast<unsigned long>(row.aborts),
              static_cast<unsigned long>(row.fences),
              row.invariants_ok ? "" : "  INVARIANTS VIOLATED");
}

}  // namespace

int run_policy_sweep(const SweepPreset& preset) {
  const policy::Registry& registry = policy::Registry::builtin();
  common::CsvWriter csv = open_csv(preset.figure, preset.bench);
  csv.header({"workload", "policy", "mode", "arrival", "servers",
              "throughput_ops", "p99_latency_us", "imbalance", "issued_ops",
              "arrival_span_s", "migrations", "committed_migrations",
              "aborted_migrations", "fenced_rejections", "crashes",
              "epochs_with_commits", "max_epoch_aborts", "invariants_ok"});

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

        Row row;
        row.workload = w.name;
        row.policy = e.name;
        row.mode = mode;
        row.arrival = r.arrival_name;
        row.servers = r.mds_count;
        row.throughput = r.steady_throughput_ops;
        row.p99_us = r.p99_latency_us;
        row.imbalance = r.imf_busy;
        row.issued = seen.issued;
        row.arrival_span_s = sim::to_seconds(seen.last_at);
        row.migrations = r.migrations;
        row.commits = seen.commits;
        row.aborts = seen.aborts;
        row.fences = r.faults.fenced_rejections;
        row.crashes = r.faults.crashes;
        row.epochs_with_commits = seen.epochs_with_commits;
        row.max_epoch_aborts = seen.max_epoch_aborts;
        if (with_faults && r.ledger) {
          const auto report = recovery::NamespaceInvariantChecker::check(
              w.trace.tree, *r.ledger);
          row.invariants_ok = report.ok();
          if (row.invariants_ok) {
            std::printf("  [%s/%s] invariants: I1-I8 hold\n", w.name.c_str(),
                        e.name.c_str());
          } else {
            ++violations;
            std::printf("  [%s/%s] invariants: VIOLATED\n%s\n",
                        w.name.c_str(), e.name.c_str(),
                        report.to_string().c_str());
          }
        }
        emit(csv, row);
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

        Row row;
        row.workload = w.name;
        row.policy = e.name;
        row.mode = "live";
        row.arrival = "closed";  // lro keeps the live plane's closed loop
        row.servers = preset.base.mds_count;
        row.throughput = r.throughput_ops;
        row.p99_us = r.latency.quantile(0.99) / 1'000.0;
        row.imbalance = r.shard_imbalance;
        row.migrations = r.migrations;
        row.commits = r.faults.committed_migrations;
        row.aborts = r.faults.aborted_migrations;
        row.fences = r.faults.fenced_rejections;
        row.crashes = r.faults.crashes;
        emit(csv, row);
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
               csv);
  std::printf("all faulted runs audited: I1-I8 hold across %zu policies x "
              "%zu workloads. CSV: %s, JSON: %s\n",
              registry.entries().size(), preset.workloads.size(),
              csv.path().c_str(), preset.out_path.c_str());
  return 0;
}

}  // namespace origami::bench
