// origami_sim — command-line driver for the simulated metadata cluster.
//
//   origami_sim --trace rw --ops 300000 --policy origami --mds 5
//   origami_sim --trace ro --csv results.csv
//   origami_sim --trace-file my.trace --policy meta-opt --epoch-ms 250
//
// Without --policy it runs the paper's six: single, c-hash, f-hash, ml-tree,
// origami and meta-opt. ml-tree/origami train their model on a sibling run
// (seed+98) first.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "origami/cluster/replay.hpp"
#include "origami/common/csv.hpp"
#include "origami/common/flags.hpp"
#include "origami/common/spec.hpp"
#include "origami/common/thread_pool.hpp"
#include "origami/fault/fault.hpp"
#include "origami/policy/registry.hpp"
#include "origami/recovery/invariants.hpp"
#include "origami/core/balancers.hpp"
#include "origami/core/pipeline.hpp"
#include "origami/wl/arrival.hpp"
#include "origami/wl/generators.hpp"

using namespace origami;

namespace {

constexpr const char* kUsage = R"(usage: origami_sim [options]
  --help                   print this usage, then exit
  --trace FAMILY           rw|ro|wi|web|mdtest|falcon|midas (default rw;
                           falcon and midas are timed — they carry native
                           arrival timestamps for --arrival=trace; mdtest
                           ignores --ops)
  --trace-file PATH        load a saved trace instead of generating one
  --ops N                  operations to generate (default 300000)
  --seed N                 workload seed (default 1)
  --arrival SPEC           arrival process "name[:key=value,...]" driving
                           request issuance (default: closed loop; see
                           --list-arrivals for the catalogue)
  --trace-speed F          shorthand for --arrival=trace:speed=F (replay the
                           trace's native timestamps, time-scaled)
  --list-arrivals          print every registered arrival process with its
                           parameters, then exit
  --policy SPEC            any registered policy, with parameters:
                           "name[:key=value,...]" (default: single, c-hash,
                           f-hash, ml-tree, origami and meta-opt, single on
                           1 MDS; see --list-policies for the catalogue)
  --list-policies          print every registered policy with its params
                           and metrics schema, then exit
  --mds N                  metadata servers (default 5)
  --clients N              closed-loop clients (default 50)
  --epoch-ms N             balancing epoch (default 500)
  --warmup-epochs N        epochs left out of steady-state numbers (default 4)
  --threads N              analysis-plane worker threads (default 1; results
                           are bit-identical at any value, 0 = all cores)
  --cache on|off           near-root client cache (default on)
  --cache-depth N          cache depth threshold (default 3)
  --data-path              enable the file-data cluster (end-to-end mode)
  --kv-backing             execute real LSM-store ops on each MDS
  --csv PATH               append one row per run to a CSV file
  --epochs-csv PREFIX      dump per-epoch per-MDS series to PREFIX_<policy>.csv

fault injection (all off by default; seeded, deterministic):
  --fault-seed N           fault-schedule seed (default 2026)
  --fault-crash-prob P     per-MDS per-epoch fail-stop probability
  --fault-recovery-ms N    mean crash outage length (default 2000)
  --fault-straggler-prob P per-MDS per-epoch straggler probability
  --fault-straggler-slow F straggler service-time multiplier (default 4)
  --fault-straggler-ms N   mean straggler window length (default 1000)
  --fault-loss-prob P      per-message RPC loss probability
  --fault-corrupt-prob P   per-message RPC corruption probability
  --fault-crash-at LIST    scheduled crashes "mds@start_ms+dur_ms[,...]"
  --retry-max N            per-visit retry budget (default 5)
  --retry-timeout-ms F     per-RPC timeout (default 5)
  --retry-backoff-ms F     initial backoff, doubles per attempt (default 0.2)
  --retry-backoff-cap-ms F backoff ceiling (default 50)

async metadata commit (journaling; only active with faults armed):
  --commit-mode MODE       sync (durable before ack, default) | async
                           (group-committed; ack on memtable apply)
  --commit-window F        async: max ms a record may sit buffered (default 2)
  --commit-batch N         async: flush at this many buffered records
                           (default 64)
  --kv-wal-dir DIR         writable directory for the real per-MDS WAL files;
                           required by --commit-mode=async with --kv-backing
                           (group commits then fsync real files and the
                           measured latency is reported)
)";

/// A flag is known when the usage documents it, so every accepted flag is
/// documented and a typo cannot fall back to a default run.
bool documented(const std::string& name) {
  const std::string_view usage = kUsage;
  const std::string flag = "--" + name;
  for (std::size_t at = usage.find(flag); at != std::string_view::npos;
       at = usage.find(flag, at + 1)) {
    const std::size_t end = at + flag.size();
    if (end == usage.size() ||
        !((usage[end] >= 'a' && usage[end] <= 'z') || usage[end] == '-')) {
      return true;
    }
  }
  return false;
}

void print_result(const cluster::RunResult& r, bool faults, bool async) {
  std::printf("%-9s %4u MDS  %9.0f ops/s (steady %9.0f)  lat %7.1f us "
              "(p99 %8.1f)  RPC/req %.3f  IF busy/qps %.2f/%.2f  "
              "migr %lu (%lu inodes)\n",
              r.balancer_name.c_str(), r.mds_count, r.throughput_ops,
              r.steady_throughput_ops, r.mean_latency_us, r.p99_latency_us,
              r.rpc_per_request, r.imf_busy, r.imf_qps,
              static_cast<unsigned long>(r.migrations),
              static_cast<unsigned long>(r.inodes_migrated));
  if (faults) {
    const auto& f = r.faults;
    std::printf("          faults: %lu crashes  %lu failovers (%lu dirs, "
                "%lu restored)  %lu retries  %lu timeouts  %lu lost  "
                "%lu failed ops  %lu aborted migr  down %.2fs  degraded "
                "%.2fs\n",
                static_cast<unsigned long>(f.crashes),
                static_cast<unsigned long>(f.failovers),
                static_cast<unsigned long>(f.failover_dirs),
                static_cast<unsigned long>(f.restored_dirs),
                static_cast<unsigned long>(f.retries),
                static_cast<unsigned long>(f.timeouts),
                static_cast<unsigned long>(f.rpcs_lost),
                static_cast<unsigned long>(f.failed_ops),
                static_cast<unsigned long>(f.aborted_migrations),
                sim::to_seconds(f.time_down), sim::to_seconds(f.time_degraded));
    std::printf("          recovery: %lu journal replays (%lu records)  "
                "%lu records logged (%lu ckpts, %lu torn tails)  "
                "%lu fenced  2pc %lu/%lu prep/commit  window %.2fs  "
                "queued %.2fs\n",
                static_cast<unsigned long>(f.journal_replays),
                static_cast<unsigned long>(f.journal_replayed_records),
                static_cast<unsigned long>(f.journal_records),
                static_cast<unsigned long>(f.journal_checkpoints),
                static_cast<unsigned long>(f.torn_tail_truncations),
                static_cast<unsigned long>(f.fenced_rejections),
                static_cast<unsigned long>(f.prepared_migrations),
                static_cast<unsigned long>(f.committed_migrations),
                sim::to_seconds(f.recovery_window_time),
                sim::to_seconds(f.recovery_queue_time));
    if (async) {
      std::printf("          async commit: %lu group commits (%lu records)  "
                  "%lu acked-lost  %lu unacked-lost  max ack->durable "
                  "%.3fms\n",
                  static_cast<unsigned long>(f.group_commits),
                  static_cast<unsigned long>(f.group_commit_records),
                  static_cast<unsigned long>(f.acked_lost_ops),
                  static_cast<unsigned long>(f.unacked_lost_ops),
                  sim::to_seconds(f.max_commit_lag) * 1e3);
      if (r.kv_backed) {
        const auto& kv = r.kv_stats;
        std::printf("          kv commit: %lu group commits (%lu records)  "
                    "%lu fsyncs  buffer max %lu B  fsync us "
                    "p50/p99/max %lu/%lu/%lu (measured)\n",
                    static_cast<unsigned long>(kv.group_commits),
                    static_cast<unsigned long>(kv.group_commit_records),
                    static_cast<unsigned long>(kv.wal_fsyncs),
                    static_cast<unsigned long>(kv.commit_buffer_bytes_max),
                    static_cast<unsigned long>(kv.fsync_micros.quantile(0.5)),
                    static_cast<unsigned long>(kv.fsync_micros.quantile(0.99)),
                    static_cast<unsigned long>(kv.fsync_micros.max()));
        std::printf("          kv crashes: %lu recoveries (%lu records "
                    "replayed)  %lu acked records lost from real commit "
                    "buffers\n",
                    static_cast<unsigned long>(f.kv_crash_recoveries),
                    static_cast<unsigned long>(f.kv_replayed_records),
                    static_cast<unsigned long>(f.kv_acked_lost_records));
      }
    }
  }
}

/// Per-crash acked-vs-unacked loss report from the durability histories:
/// lost records grouped by (mds, crash instant).
void print_crash_losses(const recovery::RecoveryLedger& ledger) {
  for (std::size_t mds = 0; mds < ledger.durability.size(); ++mds) {
    // Crash instants appear in append order; collect them in first-seen
    // order so the report reads chronologically.
    std::vector<sim::SimTime> crashes;
    for (const auto& rec : ledger.durability[mds]) {
      if (rec.lost_at == recovery::DurabilityWindow::kNever) continue;
      if (std::find(crashes.begin(), crashes.end(), rec.lost_at) ==
          crashes.end()) {
        crashes.push_back(rec.lost_at);
      }
    }
    for (const sim::SimTime at : crashes) {
      unsigned long acked = 0;
      unsigned long unacked = 0;
      for (const auto& rec : ledger.durability[mds]) {
        if (rec.lost_at != at) continue;
        if (rec.acked_at != recovery::DurabilityWindow::kNever) {
          ++acked;
        } else {
          ++unacked;
        }
      }
      std::printf("            mds %zu crash @%.3fs: lost %lu acked + %lu "
                  "unacked buffered records (window %.2fms, batch %u)\n",
                  mds, sim::to_seconds(at), acked, unacked,
                  sim::to_seconds(ledger.commit_window) * 1e3,
                  ledger.commit_batch);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const common::Flags flags(argc, argv);
  if (flags.has("help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  std::string unknown;
  for (const std::string& name : flags.names()) {
    if (!documented(name)) unknown += " --" + name;
  }
  for (const std::string& arg : flags.positional()) unknown += " " + arg;
  if (!unknown.empty()) {
    std::fprintf(stderr, "error: unrecognized argument(s):%s\n%s",
                 unknown.c_str(), kUsage);
    return 2;
  }
  if (flags.has("list-policies")) {
    std::fputs(policy::Registry::builtin().describe().c_str(), stdout);
    return 0;
  }
  if (flags.has("list-arrivals")) {
    std::fputs(wl::ArrivalRegistry::builtin().describe().c_str(), stdout);
    return 0;
  }

  // Every flag value is checked before any work starts. Shared CLI
  // vocabulary (tools + benches): flags land on top of this tool's
  // defaults — 500 ms epochs, 4 warm-up epochs.
  constexpr std::int64_t kMaxInt = std::numeric_limits<std::int64_t>::max();
  common::FlagReader read(flags);
  const std::uint64_t ops = read.int_flag("ops", 1, kMaxInt).value_or(300'000);
  const std::uint64_t seed = read.int_flag("seed", 0, kMaxInt).value_or(1);
  const auto threads = read.int_flag("threads", 0, 4096);
  if (!read.status().is_ok()) {
    std::fprintf(stderr, "error: %s\n%s", read.status().to_string().c_str(),
                 kUsage);
    return 2;
  }
  cluster::ReplayOptions base;
  base.epoch_length = sim::millis(500);
  base.warmup_epochs = 4;
  auto parsed = cluster::options_from_flags(flags, base);
  if (!parsed.is_ok()) {
    std::fprintf(stderr, "error: %s\n%s", parsed.status().to_string().c_str(),
                 kUsage);
    return 2;
  }
  const cluster::ReplayOptions opt = std::move(parsed).value();

  // Without --policy, the paper's six, with single on one server.
  const bool all_mode = opt.policy.empty();
  const std::vector<std::string> todo =
      all_mode ? std::vector<std::string>{"single", "c-hash", "f-hash",
                                          "ml-tree", "origami", "meta-opt"}
               : std::vector<std::string>{opt.policy};

  const policy::Registry& registry = policy::Registry::builtin();
  std::vector<const policy::Entry*> resolved;
  for (const std::string& spec : todo) {
    if (auto s = registry.validate(spec); !s.is_ok()) {
      std::fprintf(stderr, "error: %s\n%s", s.to_string().c_str(), kUsage);
      return 2;
    }
    resolved.push_back(registry.find(common::parse_spec(spec).value().name));
  }

  // The decision plane (window analysis, Meta-OPT scoring, feature
  // extraction) shards onto this pool; the DES event loop itself stays
  // single-threaded, and every output is bit-identical at any setting.
  if (threads) common::set_analysis_threads(static_cast<std::size_t>(*threads));

  const std::string trace_file = flags.get("trace-file");
  const std::string family = flags.get("trace", "rw");
  wl::Trace trace;
  if (trace_file.empty()) {
    auto made = wl::make_trace(family, seed, ops);
    if (!made.is_ok()) {
      std::fprintf(stderr, "error: %s\n%s", made.status().to_string().c_str(),
                   kUsage);
      return 2;
    }
    trace = std::move(made).value();
  } else {
    auto loaded = wl::load_trace(trace_file);
    if (loaded.is_ok() && loaded.value().ops.empty()) {
      loaded = common::Status::invalid_argument(
          trace_file + ": trace has no operations to replay");
    }
    if (!loaded.is_ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.status().to_string().c_str());
      return 1;
    }
    trace = std::move(loaded).value();
  }
  const auto summary = wl::summarize(trace);
  std::printf("trace %s: %lu ops, %zu dirs / %zu files, depth<=%u, "
              "writes %.0f%%\n\n",
              trace.name.c_str(), static_cast<unsigned long>(summary.total_ops),
              trace.tree.dir_count(), trace.tree.file_count(),
              summary.max_depth, summary.write_fraction * 100);

  // Arrival preconditions are checkable only once the trace exists
  // (--arrival=trace needs native timestamps): fail with usage now rather
  // than letting the engine throw mid-run.
  if (!opt.arrival.empty()) {
    auto probe = wl::ArrivalRegistry::builtin().make(
        opt.arrival, {&trace, opt.clients});
    if (!probe.is_ok()) {
      std::fprintf(stderr, "error: %s\n%s",
                   probe.status().to_string().c_str(), kUsage);
      return 2;
    }
  }

  // Train once if any requested policy consumes a model.
  core::TrainedModels models;
  bool needs_models = false;
  for (const policy::Entry* e : resolved) {
    needs_models |= e->needs_benefit_model || e->needs_popularity_model;
  }
  if (needs_models) {
    std::printf("training models on a sibling run (seed+98)...\n");
    // A loaded trace trains on itself; a generated family on its sibling.
    const wl::Trace train_trace =
        trace_file.empty()
            ? std::move(wl::make_trace(family, seed + 98, ops)).value()
            : trace;
    core::LabelGenOptions lg;
    lg.replay = opt;
    lg.meta_opt.cache_enabled = opt.cache_enabled;
    lg.meta_opt.cache_depth = opt.cache_depth;
    ml::GbdtParams gbdt;
    gbdt.rounds = 200;
    gbdt.early_stopping_rounds = 30;
    models = core::train_models(core::generate_labels(train_trace, lg), gbdt);
    std::printf("  benefit model: %d trees, spearman %.2f, top-decile lift "
                "%.1fx\n\n",
                models.benefit->num_trees(), models.benefit_spearman,
                models.benefit_top_lift);
  }

  std::unique_ptr<common::CsvWriter> csv;
  if (flags.has("csv")) {
    csv = std::make_unique<common::CsvWriter>(flags.get("csv"));
    csv->header({"strategy", "mds", "throughput", "steady_throughput",
                 "mean_latency_us", "p99_latency_us", "rpc_per_request",
                 "imf_busy", "imf_qps", "migrations"});
  }

  policy::PolicyContext ctx;
  ctx.options = &opt;
  ctx.benefit_model = models.benefit;
  ctx.popularity_model = models.popularity;
  bool violations = false;
  for (std::size_t ti = 0; ti < todo.size(); ++ti) {
    cluster::ReplayOptions run_opt = opt;
    if (resolved[ti]->single_mds && all_mode) run_opt.mds_count = 1;
    auto made = registry.make(todo[ti], ctx);
    if (!made.is_ok()) {
      std::fprintf(stderr, "error: %s\n%s",
                   made.status().to_string().c_str(), kUsage);
      return 2;
    }
    const std::unique_ptr<cluster::Balancer> balancer =
        std::move(made).value();
    const bool async_commit =
        opt.recovery.commit_mode == recovery::CommitMode::kAsync;
    const auto r = cluster::replay_trace(trace, run_opt, *balancer);
    print_result(r, opt.faults.enabled(), async_commit);
    if (opt.faults.enabled() && r.ledger) {
      if (async_commit) print_crash_losses(*r.ledger);
      const auto report =
          recovery::NamespaceInvariantChecker::check(trace.tree, *r.ledger);
      if (report.ok()) {
        std::printf("          invariants: I1-I%c hold (%zu transfers, "
                    "%zu migration events audited)\n",
                    async_commit ? '8' : '6', r.ledger->transfers.size(),
                    r.ledger->migrations.size());
      } else {
        std::printf("          invariants: VIOLATED\n%s",
                    report.to_string().c_str());
        violations = true;
      }
    }
    if (flags.has("epochs-csv")) {
      const std::string path =
          flags.get("epochs-csv") + "_" + r.balancer_name + ".csv";
      if (auto s = cluster::write_epoch_csv(r, path); !s.is_ok()) {
        std::fprintf(stderr, "warning: %s\n", s.to_string().c_str());
      }
    }
    if (csv) {
      csv->field(r.balancer_name)
          .field(static_cast<std::uint64_t>(r.mds_count))
          .field(r.throughput_ops)
          .field(r.steady_throughput_ops)
          .field(r.mean_latency_us)
          .field(r.p99_latency_us)
          .field(r.rpc_per_request)
          .field(r.imf_busy)
          .field(r.imf_qps)
          .field(r.migrations);
      csv->endrow();
    }
  }
  return violations ? 1 : 0;
}
