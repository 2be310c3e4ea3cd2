// Beyond-paper Figure 12 — asynchronous metadata commit vs durability
// window.
//
// Replays Trace-RW on the C-Hash baseline over a (commit config x crash
// rate) grid: synchronous journaling (every mutation pays its fsync share
// before the ack) against group-committed async journaling at growing
// commit windows. Async mode trades a bounded durability window — an
// acknowledged mutation is exposed to loss until its group commit lands —
// for fewer fsyncs off the critical path, so throughput must grow (or at
// worst hold) monotonically with the window at every crash rate; the bench
// enforces that monotonicity and fails loudly when it breaks.
//
// Every faulty run is audited by the NamespaceInvariantChecker (I1-I8):
// nothing durable may be lost (I7) and every acked-but-lost record must be
// reported and bounded by the configured window/batch (I6/I8). The global
// durability audit closes the books per run: acked ops partition exactly
// into durable and reported-lost.
//
// Outputs: fig12_async_commit.csv (one row per grid cell) and a JSON
// report of the same rows (--out, default BENCH_async_commit.json).
// --smoke shrinks the trace for CI. Every cell sets its own fault plan,
// retry budget and commit mode over a closed-loop replay of its own trace,
// so the shared prefixed flags (--fault-*, --retry-*, --commit-*,
// --arrival*, --trace-*) would be dropped or would relabel the grid: any
// of them exits 2 with usage.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "table.hpp"
#include "origami/cluster/options.hpp"
#include "origami/common/csv.hpp"
#include "origami/common/flags.hpp"
#include "origami/recovery/invariants.hpp"

using namespace origami;

namespace {

struct CommitConfig {
  const char* mode;  // "sync" or "async"
  double window_ms;  // 0 for sync
};

// Ordered by effective durability window: sync acts as window 0. The batch
// threshold is set high enough that the window is the binding flush
// trigger across the sweep.
constexpr CommitConfig kConfigs[] = {
    {"sync", 0.0}, {"async", 0.25}, {"async", 1.0}, {"async", 4.0}};
constexpr std::uint32_t kAsyncBatch = 1024;

constexpr double kCrashRates[] = {0.0, 0.05, 0.10};

cluster::ReplayOptions options_for(const cluster::ReplayOptions& base,
                                   const CommitConfig& cfg, double rate,
                                   const std::string& kv_wal_dir) {
  cluster::ReplayOptions opt = bench::with_crashes(base, rate);
  // The default t_fsync (2us) models a group-commit *share* and would bury
  // the sync-vs-async contrast in epoch quantization noise; this figure is
  // about that contrast, so it prices the full device flush a sync commit
  // actually waits on. Async mode pays the same 100us but once per group
  // commit, off the op critical path.
  opt.recovery.t_fsync = sim::micros(100);
  if (std::string(cfg.mode) == "async") {
    opt.recovery.commit_mode = recovery::CommitMode::kAsync;
    opt.recovery.commit_window = sim::millis(cfg.window_ms);
    opt.recovery.commit_batch = kAsyncBatch;
    opt.kv_wal_dir = kv_wal_dir;  // ignored unless kv_backing is on
  }
  return opt;
}

struct Cell {
  CommitConfig cfg;
  double rate = 0.0;
  double steady = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Fig. 12 — async commit vs durability window ===\n\n");
  const common::Flags raw(argc, argv);
  for (const std::string& name : raw.names()) {
    if (cluster::is_shared_flag(name)) {
      std::fprintf(stderr,
                   "error: --%s is not accepted: every grid cell sets its "
                   "own fault plan, retries and commit mode over a "
                   "closed-loop replay of its own trace\n"
                   "usage: fig12_async_commit [--smoke] [--out PATH] "
                   "[--kv-backing [--kv-wal-dir DIR] [--kv-out PATH]] "
                   "[--mds N, --clients N, ...]\n",
                   name.c_str());
      return 2;
    }
  }
  const bool smoke = raw.get_bool("smoke", false);
  const std::string out_path = raw.get("out", "BENCH_async_commit.json");
  const std::uint64_t ops = smoke ? 40'000 : 150'000;

  // --kv-backing runs the grid on the real store: each MDS's InodeStore
  // group-commits a file-backed WAL, crashes sweep real commit buffers, and
  // the report (--kv-out) gives the *measured* fsync distribution next to
  // the modeled t_fsync — Fig. 12's measured-vs-modeled companion. It has
  // no CSV beside it.
  const bool kv_backing = raw.get_bool("kv-backing", false);
  const std::string kv_out = raw.get("kv-out", "BENCH_kv_commit.json");
  std::string kv_wal_dir = raw.get("kv-wal-dir", "");
  if (kv_backing && kv_wal_dir.empty()) {
    kv_wal_dir = (std::filesystem::temp_directory_path() /
                  "origami_fig12_kv_wal")
                     .string();
    std::filesystem::create_directories(kv_wal_dir);
  }

  const wl::Trace trace = bench::standard_rw(/*seed=*/1, ops);
  cluster::ReplayOptions base =
      bench::options_from_argv(argc, argv, bench::paper_options());
  base.kv_backing = base.kv_backing || kv_backing;

  bench::Table t("fig12", "async_commit",
                 {{"mode", 0, 5}, {"commit_window_ms", 2}, {"commit_batch"},
                  {"crash_prob", 2}, {"steady_throughput_ops", 0},
                  {"throughput_ops", 0}, {"mean_latency_us", 1},
                  {"p99_latency_us", 1}, {"group_commits"},
                  {"journal_records"}, {"acked_lost_ops"},
                  {"acked_lost_records"}, {"unacked_lost_records"},
                  {"max_commit_lag_ms", 3}, {"crashes"}, {"journal_replays"},
                  {"invariants_ok"}});
  // Measured-vs-modeled: the DES prices every sync commit at t_fsync
  // (100us in this figure) while the real store *measures* each group
  // commit's fsync on the WAL files under --kv-wal-dir.
  common::CsvWriter kv_rows;
  kv_rows.header({"mode", "commit_window_ms", "crash_prob", "group_commits",
                  "group_commit_records", "wal_fsyncs",
                  "commit_buffer_bytes_max", "fsync_us_p50", "fsync_us_p99",
                  "fsync_us_max", "fsync_us_mean", "fsync_samples",
                  "kv_crash_recoveries", "kv_replayed_records",
                  "kv_acked_lost_records"});

  int violations = 0;
  std::vector<Cell> cells;
  for (double rate : kCrashRates) {
    for (const CommitConfig& cfg : kConfigs) {
      const auto opt = options_for(base, cfg, rate, kv_wal_dir);
      const bool async = opt.recovery.commit_mode == recovery::CommitMode::kAsync;
      auto r = bench::run_policy("c-hash", trace, opt, /*models=*/nullptr);
      const auto& f = r.faults;

      bool ok = true;
      std::uint64_t audit_acked_lost = 0;
      if (r.ledger) {
        const auto report =
            recovery::NamespaceInvariantChecker::check(trace.tree, *r.ledger);
        ok = report.ok();
        if (!ok) {
          ++violations;
          std::printf("INVARIANT VIOLATION (%s w=%.2fms, crash p=%.2f):\n%s\n",
                      cfg.mode, cfg.window_ms, rate,
                      report.to_string().c_str());
        }
        const auto audit = recovery::audit_durability(*r.ledger);
        audit_acked_lost = audit.acked_lost;
      }

      t.row({cfg.mode, cfg.window_ms, std::uint64_t{async ? kAsyncBatch : 0u},
             rate, r.steady_throughput_ops, r.throughput_ops,
             r.mean_latency_us, r.p99_latency_us, f.group_commits,
             f.journal_records, audit_acked_lost, f.acked_lost_ops,
             f.unacked_lost_ops, sim::to_seconds(f.max_commit_lag) * 1e3,
             f.crashes, f.journal_replays, std::uint64_t{ok ? 1u : 0u}});
      if (kv_backing) {
        const kv::DbStats& kv = r.kv_stats;
        kv_rows.field(cfg.mode)
            .field(cfg.window_ms)
            .field(rate)
            .field(kv.group_commits)
            .field(kv.group_commit_records)
            .field(kv.wal_fsyncs)
            .field(kv.commit_buffer_bytes_max)
            .field(kv.fsync_micros.quantile(0.5))
            .field(kv.fsync_micros.quantile(0.99))
            .field(kv.fsync_micros.max())
            .field(kv.fsync_micros.mean())
            .field(kv.fsync_micros.count())
            .field(f.kv_crash_recoveries)
            .field(f.kv_replayed_records)
            .field(f.kv_acked_lost_records);
        kv_rows.endrow();
      }
      cells.push_back({cfg, rate, r.steady_throughput_ops});
    }
  }

  // The durability window buys throughput: within each crash rate the
  // steady-state throughput must be non-decreasing as the window grows
  // (sync = window 0). A regression here means async mode is paying MORE
  // than a per-op fsync somewhere.
  int regressions = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i % std::size(kConfigs) == 0) continue;  // first config of the rate
    const Cell& prev = cells[i - 1];
    const Cell& cur = cells[i];
    // Relative tolerance: epoch-window quantization jitters steady-state
    // throughput by ~1e-5; only a real cost regression exceeds this.
    if (cur.steady < prev.steady * (1.0 - 1e-4)) {
      ++regressions;
      std::printf("THROUGHPUT REGRESSION at crash p=%.2f: %s w=%.2fms "
                  "(%.0f ops/s) < %s w=%.2fms (%.0f ops/s)\n",
                  cur.rate, cur.cfg.mode, cur.cfg.window_ms, cur.steady,
                  prev.cfg.mode, prev.cfg.window_ms, prev.steady);
    }
  }

  if (violations > 0 || regressions > 0) {
    std::printf("FAILED: %d invariant violation(s), %d throughput "
                "regression(s)\n",
                violations, regressions);
    return 1;
  }
  bench::write_report(out_path, "async_commit",
                      {{"ops", ops},
                       {"smoke", smoke},
                       {"commit_batch", kAsyncBatch}},
                      t.csv());
  if (kv_backing) {
    bench::write_report(kv_out, "kv_commit",
                        {{"ops", ops},
                         {"smoke", smoke},
                         {"modeled_t_fsync_us", 100},
                         {"commit_batch", kAsyncBatch},
                         {"kv_wal_dir", kv_wal_dir}},
                        kv_rows);
    std::printf("measured group-commit JSON: %s (WAL dir %s)\n",
                kv_out.c_str(), kv_wal_dir.c_str());
  }
  std::printf("all runs audited: I1-I8 hold, throughput monotone in the "
              "durability window. CSV: fig12_async_commit.csv, JSON: %s\n",
              out_path.c_str());
  return 0;
}
