// Beyond-paper Figure 14 — saturation of the live serving plane.
//
// The live service runs a cost-model-driven virtual clock and serves every
// request on one thread. Two properties are worth a figure:
//
//   saturation   the clients axis. The virtual throughput column moves
//                with offered load (closed-loop clients); host wall time
//                shows what serving that load costs on this host.
//                Host-side numbers are machine-dependent and recorded (the
//                report's `host` holds the core count) rather than
//                asserted;
//   live robustness  the live counterparts of Fig. 10 (fault-type sweep vs
//                p99 tail latency) and Fig. 11 (crash-recovery-duration
//                sweep vs downtime and throughput), measurable because the
//                live plane has a real latency distribution.
//
// Outputs: fig14_saturation.csv and a JSON report of the same rows (--out,
// default BENCH_saturation.json). --smoke shrinks the clients axis for CI.
// Every sweep sets its own fault plan, retry budget and commit mode, and
// the clients are a closed loop, so the shared flags (--fault-*, --retry-*,
// --commit-*, --arrival*, --trace-*) would change nothing: any of them
// exits 2 with usage rather than label a run it did not shape.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "table.hpp"
#include "origami/cluster/options.hpp"
#include "origami/common/csv.hpp"
#include "origami/common/flags.hpp"
#include "origami/fs/live_replay.hpp"

using namespace origami;

namespace {

constexpr std::uint32_t kShards = 8;

struct LiveRun {
  fs::LiveReplayStats stats;
  double host_ms = 0.0;  ///< wall-clock time of the replay on this host
};

LiveRun run_live(const wl::Trace& trace, const fs::LiveReplayOptions& lro) {
  fs::OrigamiFs::Options fopt;
  fopt.shards = kShards;
  fs::OrigamiFs fsys(fopt);
  const auto t0 = std::chrono::steady_clock::now();
  LiveRun run;
  run.stats = fs::replay_on_live(trace, fsys, lro);
  const auto t1 = std::chrono::steady_clock::now();
  run.host_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          t1 - t0)
          .count();
  return run;
}

fs::LiveReplayOptions clean_options() {
  fs::LiveReplayOptions lro;
  lro.clients = 32;
  return lro;
}

fs::LiveReplayOptions faulted_options() {
  fs::LiveReplayOptions lro = clean_options();
  lro.faults.seed = 13;
  lro.faults.crash_prob = 0.10;
  lro.faults.crash_recovery = sim::millis(300);
  lro.faults.straggler_prob = 0.2;
  lro.faults.straggler_slow = 4.0;
  lro.faults.straggler_duration = sim::millis(200);
  lro.faults.rpc_loss_prob = 0.003;
  lro.retry.max_retries = 4;
  lro.recovery.commit_mode = recovery::CommitMode::kAsync;
  lro.recovery.commit_window = sim::millis(1);
  lro.recovery.commit_batch = 32;
  return lro;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Fig. 14 — live serving-plane saturation ===\n\n");
  const common::Flags raw(argc, argv);
  for (const std::string& name : raw.names()) {
    if (cluster::is_shared_flag(name)) {
      std::fprintf(stderr,
                   "error: --%s is not accepted: every sweep here sets its "
                   "own fault plan and closed loop\n"
                   "usage: fig14_saturation [--smoke] [--out PATH]\n",
                   name.c_str());
      return 2;
    }
  }
  const bool smoke = raw.get_bool("smoke", false);
  const std::string out_path = raw.get("out", "BENCH_saturation.json");

  const std::uint64_t ops = smoke ? 20'000 : 80'000;
  const unsigned host_cores = std::max(1u, std::thread::hardware_concurrency());
  const wl::Trace trace = bench::standard_rw(/*seed=*/1, ops);

  bench::Table t("fig14", "saturation",
                 {{"section", 0, 14}, {"scenario", 0, 15}, {"clients"},
                  {"virtual_throughput_ops", 0}, {"p99_latency_us", 1},
                  {"makespan_ms", 1}, {"host_ms", 1}, {"time_down_ms", 1},
                  {"time_degraded_ms", 1}, {"failed_ops"}});
  const auto emit = [&t](const char* section, const std::string& scenario,
                         std::uint32_t clients, const LiveRun& run) {
    const fs::LiveReplayStats& s = run.stats;
    t.row({section, scenario, std::uint64_t{clients}, s.throughput_ops,
           s.latency.quantile(0.99) / 1'000.0,
           static_cast<double>(s.makespan) / 1e6, run.host_ms,
           static_cast<double>(s.faults.time_down) / 1e6,
           static_cast<double>(s.faults.time_degraded) / 1e6,
           s.faults.failed_ops});
  };

  // ---- 1. saturation: the clients axis ----------------------------------
  std::printf("--- saturation (%llu ops, %u shards, host has %u cores) ---\n",
              static_cast<unsigned long long>(ops), kShards, host_cores);
  const std::vector<std::uint32_t> client_axis =
      smoke ? std::vector<std::uint32_t>{4, 16}
            : std::vector<std::uint32_t>{1, 4, 16, 64};
  for (const std::uint32_t clients : client_axis) {
    fs::LiveReplayOptions lro = clean_options();
    lro.clients = clients;
    const LiveRun run = run_live(trace, lro);
    emit("matrix", "clean", clients, run);
  }

  // ---- 2. live Fig. 10 counterpart: fault types vs tail latency ---------
  std::printf("\n--- live fault sweep (Fig. 10 counterpart) ---\n");
  struct Scenario {
    const char* name;
    fs::LiveReplayOptions lro;
  };
  std::vector<Scenario> sweep;
  sweep.push_back({"clean", clean_options()});
  {
    fs::LiveReplayOptions lro = clean_options();
    lro.faults.seed = 13;
    lro.faults.crash_prob = 0.10;
    lro.faults.crash_recovery = sim::millis(300);
    lro.retry.max_retries = 4;
    sweep.push_back({"crashes", lro});
  }
  {
    fs::LiveReplayOptions lro = clean_options();
    lro.faults.seed = 13;
    lro.faults.straggler_prob = 0.4;
    lro.faults.straggler_slow = 6.0;
    lro.faults.straggler_duration = sim::millis(250);
    sweep.push_back({"stragglers", lro});
  }
  {
    fs::LiveReplayOptions lro = clean_options();
    lro.faults.seed = 13;
    lro.faults.rpc_loss_prob = 0.01;
    lro.retry.max_retries = 4;
    sweep.push_back({"rpc-loss", lro});
  }
  sweep.push_back({"combined", faulted_options()});
  for (const Scenario& sc : sweep) {
    const LiveRun run = run_live(trace, sc.lro);
    emit("fault-sweep", sc.name, sc.lro.clients, run);
  }

  // ---- 3. live Fig. 11 counterpart: recovery-duration sweep -------------
  std::printf("\n--- live recovery sweep (Fig. 11 counterpart) ---\n");
  for (const double recovery_ms : {50.0, 200.0, 800.0}) {
    fs::LiveReplayOptions lro = clean_options();
    lro.faults.seed = 13;
    lro.faults.crash_prob = 0.10;
    lro.faults.crash_recovery = sim::millis(recovery_ms);
    lro.retry.max_retries = 4;
    const LiveRun run = run_live(trace, lro);
    char label[32];
    std::snprintf(label, sizeof(label), "recovery-%.0fms", recovery_ms);
    emit("recovery-sweep", label, lro.clients, run);
  }

  bench::write_report(out_path, "saturation",
                      {{"ops", ops}, {"smoke", smoke}, {"shards", kShards}},
                      t.csv());
  std::printf("\nCSV: fig14_saturation.csv, JSON: %s\n", out_path.c_str());
  return 0;
}
