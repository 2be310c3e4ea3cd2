// Tests for the fault-injection subsystem: schedule determinism, retry
// backoff, MDS health windows, network loss sampling, and the replay-level
// integration (failover, restore, never routing to a down MDS).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "origami/cluster/fault_plane.hpp"
#include "origami/cluster/replay.hpp"
#include "origami/fault/fault.hpp"
#include "origami/fs/live_replay.hpp"
#include "origami/mds/mds_server.hpp"
#include "origami/net/network.hpp"
#include "origami/wl/generators.hpp"
#include "support/fault_plane_golden_configs.hpp"

namespace origami {
namespace {

// Captured by tools/goldens.cpp; regenerate only with it and audit the
// diff.
#include "support/fault_plane_goldens.inc"

std::string fault_plane_golden(const std::string& key) {
  for (const FaultPlaneGolden& g : kFaultPlaneGoldens) {
    if (key == g.key) return g.fp;
  }
  ADD_FAILURE() << "no fault-plane golden for " << key;
  return {};
}

using sim::SimTime;

fault::FaultPlan probabilistic_plan() {
  fault::FaultPlan plan;
  plan.seed = 4242;
  plan.crash_prob = 0.3;
  plan.crash_recovery = sim::millis(200);
  plan.straggler_prob = 0.4;
  plan.straggler_slow = 3.0;
  plan.straggler_duration = sim::millis(100);
  return plan;
}

// ------------------------------------------------------------- fault plan --

TEST(FaultPlan, DefaultIsDisabled) {
  fault::FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  fault::FaultInjector inj(plan, 5);
  EXPECT_TRUE(inj.windows_for_epoch(0, 0, sim::seconds(1)).empty());
}

TEST(FaultPlan, AnySourceEnables) {
  fault::FaultPlan plan;
  plan.rpc_loss_prob = 0.01;
  EXPECT_TRUE(plan.enabled());
  plan = fault::FaultPlan{};
  plan.scheduled.push_back({0, 0, sim::millis(1), fault::FaultKind::kCrash, 1.0});
  EXPECT_TRUE(plan.enabled());
}

TEST(FaultInjector, SameSeedSameSchedule) {
  const auto plan = probabilistic_plan();
  fault::FaultInjector a(plan, 8);
  fault::FaultInjector b(plan, 8);
  const SimTime len = sim::millis(500);
  for (std::uint32_t epoch = 0; epoch < 20; ++epoch) {
    const SimTime start = static_cast<SimTime>(epoch) * len;
    const auto wa = a.windows_for_epoch(epoch, start, len);
    const auto wb = b.windows_for_epoch(epoch, start, len);
    ASSERT_EQ(wa.size(), wb.size());
    for (std::size_t i = 0; i < wa.size(); ++i) {
      EXPECT_EQ(wa[i].mds, wb[i].mds);
      EXPECT_EQ(wa[i].from, wb[i].from);
      EXPECT_EQ(wa[i].until, wb[i].until);
      EXPECT_EQ(wa[i].kind, wb[i].kind);
    }
  }
}

TEST(FaultInjector, QueryOrderIndependent) {
  const auto plan = probabilistic_plan();
  fault::FaultInjector inj(plan, 4);
  const SimTime len = sim::millis(500);
  const auto late_first = inj.windows_for_epoch(7, 7 * len, len);
  (void)inj.windows_for_epoch(3, 3 * len, len);
  const auto late_again = inj.windows_for_epoch(7, 7 * len, len);
  ASSERT_EQ(late_first.size(), late_again.size());
  for (std::size_t i = 0; i < late_first.size(); ++i) {
    EXPECT_EQ(late_first[i].from, late_again[i].from);
  }
}

TEST(FaultInjector, DifferentSeedsDiffer) {
  auto plan = probabilistic_plan();
  fault::FaultInjector a(plan, 8);
  plan.seed = 4243;
  fault::FaultInjector b(plan, 8);
  const SimTime len = sim::millis(500);
  std::size_t diffs = 0;
  for (std::uint32_t epoch = 0; epoch < 20; ++epoch) {
    const auto wa = a.windows_for_epoch(epoch, epoch * len, len);
    const auto wb = b.windows_for_epoch(epoch, epoch * len, len);
    if (wa.size() != wb.size()) {
      ++diffs;
      continue;
    }
    for (std::size_t i = 0; i < wa.size(); ++i) {
      if (wa[i].from != wb[i].from || wa[i].mds != wb[i].mds) ++diffs;
    }
  }
  EXPECT_GT(diffs, 0u);
}

TEST(FaultInjector, WindowsFallInsideEpochAndProbabilitiesBite) {
  const auto plan = probabilistic_plan();
  fault::FaultInjector inj(plan, 10);
  const SimTime len = sim::millis(500);
  std::size_t crashes = 0, stragglers = 0, total_epochs = 50;
  for (std::uint32_t epoch = 0; epoch < total_epochs; ++epoch) {
    const SimTime start = static_cast<SimTime>(epoch) * len;
    for (const auto& w : inj.windows_for_epoch(epoch, start, len)) {
      EXPECT_GE(w.from, start);
      EXPECT_LT(w.from, start + len);
      EXPECT_GT(w.until, w.from);
      if (w.kind == fault::FaultKind::kCrash) ++crashes;
      if (w.kind == fault::FaultKind::kStraggler) {
        ++stragglers;
        EXPECT_GE(w.slow_factor, 1.0);
      }
    }
  }
  // 10 MDSs x 50 epochs at p=0.3/0.4: expect well over a hundred of each;
  // be loose, this is a sanity bound, not a statistics test.
  EXPECT_GT(crashes, 50u);
  EXPECT_GT(stragglers, 80u);
}

TEST(FaultInjector, ScheduledWindowsSurface) {
  fault::FaultPlan plan;
  plan.scheduled.push_back(
      {2, sim::millis(750), sim::millis(900), fault::FaultKind::kCrash, 1.0});
  fault::FaultInjector inj(plan, 5);
  const SimTime len = sim::millis(500);
  EXPECT_TRUE(inj.windows_for_epoch(0, 0, len).empty());
  const auto w1 = inj.windows_for_epoch(1, len, len);
  ASSERT_EQ(w1.size(), 1u);
  EXPECT_EQ(w1[0].mds, 2u);
  EXPECT_EQ(w1[0].from, sim::millis(750));
}

// ---------------------------------------------------------------- backoff --

TEST(RetryPolicy, BackoffDoublesAndCaps) {
  fault::RetryPolicy policy;
  policy.backoff_base = sim::micros(100);
  policy.backoff_cap = sim::micros(1000);
  policy.jitter_frac = 0.0;
  common::Xoshiro256 rng(1);
  EXPECT_EQ(policy.backoff_for(1, rng), sim::micros(100));
  EXPECT_EQ(policy.backoff_for(2, rng), sim::micros(200));
  EXPECT_EQ(policy.backoff_for(3, rng), sim::micros(400));
  EXPECT_EQ(policy.backoff_for(4, rng), sim::micros(800));
  EXPECT_EQ(policy.backoff_for(5, rng), sim::micros(1000));   // capped
  EXPECT_EQ(policy.backoff_for(50, rng), sim::micros(1000));  // stays capped
}

TEST(RetryPolicy, JitterStaysInBounds) {
  fault::RetryPolicy policy;
  policy.backoff_base = sim::micros(100);
  policy.backoff_cap = sim::micros(1000);
  policy.jitter_frac = 0.25;
  common::Xoshiro256 rng(7);
  for (int i = 0; i < 2000; ++i) {
    const SimTime d = policy.backoff_for(2, rng);  // nominal 200us
    EXPECT_GE(d, sim::micros(150));
    EXPECT_LT(d, sim::micros(250));
  }
}

TEST(RetryPolicy, DeterministicGivenSeed) {
  fault::RetryPolicy policy;
  common::Xoshiro256 a(11), b(11);
  for (std::uint32_t i = 1; i < 20; ++i) {
    EXPECT_EQ(policy.backoff_for(i, a), policy.backoff_for(i, b));
  }
}

// ------------------------------------------------------------- mds health --

TEST(MdsServerFaults, DownWindowDefersService) {
  mds::MdsServer s(0, {});
  s.crash(sim::millis(10), sim::millis(50));
  EXPECT_TRUE(s.is_down(sim::millis(20)));
  EXPECT_FALSE(s.is_down(sim::millis(50)));
  // An arrival mid-outage starts at the recovery instant.
  const SimTime done = s.serve(sim::millis(20), sim::micros(5));
  EXPECT_EQ(done, sim::millis(50) + sim::micros(5));
  EXPECT_EQ(s.earliest_start(sim::millis(60)), sim::millis(60));
  EXPECT_EQ(s.time_down(), sim::millis(40));
}

TEST(MdsServerFaults, DegradedStretchesService) {
  mds::MdsServer s(0, {});
  s.degrade(0, sim::millis(100), 4.0);
  const SimTime done = s.serve(0, sim::micros(10));
  EXPECT_EQ(done, sim::micros(40));
  EXPECT_EQ(s.state(sim::millis(50)), mds::MdsState::kDegraded);
  EXPECT_EQ(s.state(sim::millis(100)), mds::MdsState::kUp);
  EXPECT_EQ(s.time_degraded(), sim::millis(100));
  // After the window, service is normal again.
  const SimTime later = s.serve(sim::millis(200), sim::micros(10));
  EXPECT_EQ(later, sim::millis(200) + sim::micros(10));
}

TEST(MdsServerFaults, HealthyServerUnchanged) {
  mds::MdsServer a(0, {}), b(1, {});
  b.crash(0, 0);          // no-op window
  b.degrade(0, 0, 9.0);   // no-op window
  for (int i = 0; i < 50; ++i) {
    const SimTime arrival = i * sim::micros(3);
    EXPECT_EQ(a.serve(arrival, sim::micros(7)), b.serve(arrival, sim::micros(7)));
  }
  EXPECT_EQ(b.time_down(), 0);
  EXPECT_EQ(b.time_degraded(), 0);
}

// ---------------------------------------------------------------- network --

TEST(NetworkFaults, OneWayCountsRpcs) {
  net::Network n;
  (void)n.one_way(0, 1);
  (void)n.rtt(0, 1);
  (void)n.one_way(2, 2);  // local: free, not a message
  EXPECT_EQ(n.rpc_count(), 2u);
}

TEST(NetworkFaults, DisabledNeverDropsAndJitterUnperturbed) {
  net::NetworkParams p;
  p.seed = 99;
  net::Network plain(p);
  net::Network armed(p);
  armed.enable_faults(0.0, 0.0, 123);  // zero probabilities: still disabled
  EXPECT_FALSE(armed.faults_enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(armed.classify_delivery(), net::Network::Delivery::kOk);
    EXPECT_EQ(plain.one_way(0, 1), armed.one_way(0, 1));
  }
  EXPECT_EQ(armed.lost_count(), 0u);
}

TEST(NetworkFaults, LossRateRoughlyHonored) {
  net::Network n;
  n.enable_faults(0.1, 0.05, 555);
  int lost = 0, corrupted = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    const auto fate = n.classify_delivery();
    lost += fate == net::Network::Delivery::kLost;
    corrupted += fate == net::Network::Delivery::kCorrupted;
  }
  EXPECT_NEAR(static_cast<double>(lost) / trials, 0.1, 0.02);
  EXPECT_NEAR(static_cast<double>(corrupted) / trials, 0.05, 0.015);
  EXPECT_EQ(n.lost_count(), static_cast<std::uint64_t>(lost));
}

// ------------------------------------------------------------ integration --

cluster::ReplayOptions small_options() {
  cluster::ReplayOptions opt;
  opt.mds_count = 4;
  opt.clients = 16;
  opt.epoch_length = sim::millis(200);
  opt.warmup_epochs = 0;
  return opt;
}

wl::Trace small_trace() {
  wl::TraceRwConfig cfg;
  cfg.ops = 40'000;
  cfg.seed = 17;
  return wl::make_trace_rw(cfg);
}

TEST(ReplayFaults, DisabledPlanMatchesBaselineExactly) {
  const auto trace = small_trace();
  const auto opt = small_options();
  cluster::StaticBalancer a(cluster::StaticBalancer::Kind::kCoarseHash);
  cluster::StaticBalancer b(cluster::StaticBalancer::Kind::kCoarseHash);
  cluster::ReplayOptions with_defaults = opt;  // FaultPlan default-disabled
  const auto ra = cluster::replay_trace(trace, opt, a);
  const auto rb = cluster::replay_trace(trace, with_defaults, b);
  EXPECT_EQ(ra.completed_ops, rb.completed_ops);
  EXPECT_EQ(ra.makespan, rb.makespan);
  EXPECT_EQ(ra.total_rpcs, rb.total_rpcs);
  EXPECT_EQ(ra.latency.quantile(0.99), rb.latency.quantile(0.99));
  EXPECT_EQ(rb.faults.retries, 0u);
  EXPECT_EQ(rb.faults.failed_ops, 0u);
  EXPECT_EQ(rb.faults.crashes, 0u);
}

TEST(ReplayFaults, CrashesCauseFailoverRetriesAndCompletion) {
  const auto trace = small_trace();
  cluster::ReplayOptions opt = small_options();
  opt.faults.seed = 90;
  opt.faults.crash_prob = 0.10;
  opt.faults.crash_recovery = sim::millis(150);
  opt.faults.rpc_loss_prob = 0.002;
  opt.retry.timeout = sim::millis(1);
  cluster::StaticBalancer balancer(cluster::StaticBalancer::Kind::kCoarseHash);
  const auto r = cluster::replay_trace(trace, opt, balancer);

  EXPECT_GT(r.completed_ops, 0u);
  EXPECT_GT(r.faults.crashes, 0u);
  EXPECT_GT(r.faults.failovers, 0u);
  EXPECT_GT(r.faults.retries, 0u);
  EXPECT_GT(r.faults.time_down, 0);
  // Nearly all operations should survive the outages via retry/failover.
  EXPECT_GT(r.completed_ops, 35'000u);
  // Every issued op is either completed or accounted as failed.
  EXPECT_EQ(r.completed_ops + r.faults.failed_ops, 40'000u);
}

TEST(ReplayFaults, SameFaultSeedIsReproducible) {
  const auto trace = small_trace();
  cluster::ReplayOptions opt = small_options();
  opt.faults.crash_prob = 0.05;
  opt.faults.straggler_prob = 0.1;
  opt.faults.rpc_loss_prob = 0.001;
  cluster::StaticBalancer a(cluster::StaticBalancer::Kind::kCoarseHash);
  cluster::StaticBalancer b(cluster::StaticBalancer::Kind::kCoarseHash);
  const auto ra = cluster::replay_trace(trace, opt, a);
  const auto rb = cluster::replay_trace(trace, opt, b);
  EXPECT_EQ(ra.makespan, rb.makespan);
  EXPECT_EQ(ra.faults.retries, rb.faults.retries);
  EXPECT_EQ(ra.faults.crashes, rb.faults.crashes);
  EXPECT_EQ(ra.faults.failed_ops, rb.faults.failed_ops);
  EXPECT_EQ(ra.faults.failovers, rb.faults.failovers);
}

TEST(ReplayFaults, PartitionNeverPointsAtDownMds) {
  // Crash MDS 1 near the end of the run with an outage far beyond the
  // trace: at run end it is still down, so the final ownership map must
  // not contain it — failover moved everything off and nothing came back.
  const auto trace = small_trace();
  cluster::ReplayOptions opt = small_options();
  fault::FaultWindow w;
  w.mds = 1;
  w.kind = fault::FaultKind::kCrash;
  w.from = sim::millis(300);
  w.until = sim::seconds(3600);
  opt.faults.scheduled.push_back(w);
  cluster::StaticBalancer balancer(cluster::StaticBalancer::Kind::kCoarseHash);
  const auto r = cluster::replay_trace(trace, opt, balancer);

  EXPECT_EQ(r.faults.crashes, 1u);
  EXPECT_EQ(r.faults.failovers, 1u);
  EXPECT_GT(r.faults.failover_dirs, 0u);
  EXPECT_EQ(r.faults.restored_dirs, 0u);  // never recovered
  for (std::uint32_t owner : r.final_dir_owner) {
    EXPECT_NE(owner, 1u);
  }
  EXPECT_GT(r.completed_ops, 0u);
}

TEST(ReplayFaults, RecoveryRestoresFragments) {
  const auto trace = small_trace();
  cluster::ReplayOptions opt = small_options();
  fault::FaultWindow w;
  w.mds = 2;
  w.kind = fault::FaultKind::kCrash;
  w.from = sim::millis(250);
  w.until = sim::millis(450);
  opt.faults.scheduled.push_back(w);
  cluster::StaticBalancer balancer(cluster::StaticBalancer::Kind::kCoarseHash);
  const auto r = cluster::replay_trace(trace, opt, balancer);

  EXPECT_EQ(r.faults.crashes, 1u);
  EXPECT_GT(r.faults.failover_dirs, 0u);
  // Static balancer never re-migrates, so every fragment comes home.
  EXPECT_EQ(r.faults.restored_dirs, r.faults.failover_dirs);
  // After recovery MDS 2 owns fragments again.
  const bool owns_again =
      std::any_of(r.final_dir_owner.begin(), r.final_dir_owner.end(),
                  [](std::uint32_t o) { return o == 2u; });
  EXPECT_TRUE(owns_again);
}

TEST(ReplayFaults, StragglersInflateTailLatency) {
  const auto trace = small_trace();
  cluster::ReplayOptions clean = small_options();
  cluster::ReplayOptions slow = small_options();
  slow.faults.straggler_prob = 0.5;
  slow.faults.straggler_slow = 6.0;
  slow.faults.straggler_duration = sim::millis(120);
  cluster::StaticBalancer a(cluster::StaticBalancer::Kind::kCoarseHash);
  cluster::StaticBalancer b(cluster::StaticBalancer::Kind::kCoarseHash);
  const auto rc = cluster::replay_trace(trace, clean, a);
  const auto rs = cluster::replay_trace(trace, slow, b);
  EXPECT_GT(rs.faults.time_degraded, 0);
  EXPECT_GT(rs.p99_latency_us, rc.p99_latency_us);
}

// ------------------------------------------------------- live-mode faults --
// The same fault layers (injector sampling, failover, fencing, retries) run
// against the real OrigamiFS service on its cost-model virtual clock
// (nanoseconds): window bounds and recovery durations are virtual time, and
// crashes/recoveries fire at the engine's sync points. A 20k-op trace with
// every fragment born on shard 0 runs ~3–4 virtual seconds.

wl::Trace live_trace(std::uint64_t ops = 20'000) {
  wl::TraceRwConfig cfg;
  cfg.ops = ops;
  cfg.projects = 4;
  cfg.modules_per_project = 3;
  cfg.sources_per_module = 8;
  cfg.headers_shared = 40;
  cfg.seed = 23;
  return wl::make_trace_rw(cfg);
}

TEST(LiveReplayFaults, DisabledPlanMatchesLegacyApiExactly) {
  const auto trace = live_trace();
  fs::OrigamiFs::Options fopt;
  fopt.shards = 3;
  fs::OrigamiFs epochs_fs(fopt);
  fs::OrigamiFs armed_fs(fopt);
  // No balancing hook, no fault plan: epoch boundaries alone change
  // nothing, and every fault counter stays zero.
  fs::LiveReplayOptions epochs_only;
  epochs_only.epoch_ops = 5'000;
  const auto with_epochs = fs::replay_on_live(trace, epochs_fs, epochs_only);
  const auto via_options =
      fs::replay_on_live(trace, armed_fs, fs::LiveReplayOptions{});
  EXPECT_EQ(via_options.executed, with_epochs.executed);
  EXPECT_EQ(via_options.failed, with_epochs.failed);
  EXPECT_EQ(via_options.faults.crashes, 0u);
  EXPECT_EQ(via_options.faults.retries, 0u);
  EXPECT_EQ(via_options.faults.journal_records, 0u);
}

TEST(LiveReplayFaults, CrashMidEpochFailsOverThenRecoveryRestores) {
  const auto trace = live_trace();
  fs::OrigamiFs::Options fopt;
  fopt.shards = 3;
  fs::OrigamiFs fsys(fopt);

  // Without a balancer every fragment is born on shard 0: crash it from
  // 900ms to 2.1s of virtual time (well inside the ~3.5s makespan).
  fs::LiveReplayOptions opt;
  opt.faults.scheduled.push_back(
      {0, sim::millis(900), sim::millis(2'100), fault::FaultKind::kCrash, 1.0});
  const auto stats = fs::replay_on_live(trace, fsys, opt);

  EXPECT_EQ(stats.faults.crashes, 1u);
  EXPECT_GT(stats.faults.failovers, 0u);
  EXPECT_GT(stats.faults.failover_dirs, 0u);
  // The crash fires at the first sync point past the window start, so the
  // remaining outage is positive but no longer than the full window.
  EXPECT_GT(stats.faults.time_down, 0);
  EXPECT_LE(stats.faults.time_down, sim::millis(1'200));
  EXPECT_GT(stats.makespan, sim::millis(2'100));
  // The crashed shard's journal was torn + replayed by the survivors...
  EXPECT_EQ(stats.faults.journal_replays, 1u);
  EXPECT_GT(stats.faults.torn_tail_truncations, 0u);
  EXPECT_GT(stats.faults.journal_records, 0u);
  // ...and on recovery the parked fragments came home.
  EXPECT_EQ(stats.faults.restored_dirs, stats.faults.failover_dirs);
  EXPECT_EQ(stats.executed, trace.ops.size());
  EXPECT_EQ(stats.failed, 0u);
}

TEST(LiveReplayFaults, FencingBouncesStaleRoutesAfterFailover) {
  const auto trace = live_trace();
  fs::OrigamiFs::Options fopt;
  fopt.shards = 3;

  fs::LiveReplayOptions fenced;
  fenced.faults.scheduled.push_back(
      {0, sim::millis(900), sim::millis(2'100), fault::FaultKind::kCrash, 1.0});
  fenced.recovery.fencing = true;
  fs::OrigamiFs fs_a(fopt);
  const auto with_fencing = fs::replay_on_live(trace, fs_a, fenced);

  fs::LiveReplayOptions unfenced = fenced;
  unfenced.recovery.fencing = false;
  fs::OrigamiFs fs_b(fopt);
  const auto without = fs::replay_on_live(trace, fs_b, unfenced);

  // Failover + restore changed ownership epochs under cached client routes:
  // every stale route is bounced exactly once per epoch change.
  EXPECT_GT(with_fencing.faults.fenced_rejections, 0u);
  EXPECT_EQ(without.faults.fenced_rejections, 0u);
  EXPECT_EQ(with_fencing.executed, without.executed);
}

TEST(LiveReplayFaults, RpcLossRunsBoundedRetryLoop) {
  const auto trace = live_trace();
  fs::OrigamiFs::Options fopt;
  fopt.shards = 3;
  fs::OrigamiFs fsys(fopt);

  fs::LiveReplayOptions opt;
  opt.faults.seed = 77;
  opt.faults.rpc_loss_prob = 0.02;
  opt.retry.max_retries = 5;
  const auto stats = fs::replay_on_live(trace, fsys, opt);

  EXPECT_GT(stats.faults.rpcs_lost, 0u);
  EXPECT_GT(stats.faults.timeouts, 0u);
  EXPECT_GT(stats.faults.retries, 0u);
  // At p=0.02 with 5 retries, abandonment needs six straight losses: none
  // expected in 20k ops, and every op is accounted exactly once.
  EXPECT_EQ(stats.executed + stats.faults.failed_ops, trace.ops.size());
  EXPECT_GT(stats.executed, trace.ops.size() - 5);
}

TEST(LiveReplayFaults, StragglersStretchTailLatencies) {
  const auto trace = live_trace();
  fs::OrigamiFs::Options fopt;
  fopt.shards = 3;

  fs::LiveReplayOptions clean;
  fs::OrigamiFs fs_clean(fopt);
  const auto rc = fs::replay_on_live(trace, fs_clean, clean);

  fs::LiveReplayOptions slow;
  slow.faults.seed = 7;
  slow.faults.straggler_prob = 0.6;
  slow.faults.straggler_slow = 8.0;
  slow.faults.straggler_duration = sim::millis(250);
  fs::OrigamiFs fs_slow(fopt);
  const auto rs = fs::replay_on_live(trace, fs_slow, slow);

  // The straggler windows multiply service times on the virtual clock, so
  // both the makespan and the latency tail move; the namespace outcome and
  // executed counts stay identical.
  EXPECT_GT(rs.faults.time_degraded, 0);
  EXPECT_GT(rs.makespan, rc.makespan);
  EXPECT_GT(rs.latency.quantile(0.99), rc.latency.quantile(0.99));
  EXPECT_EQ(rs.executed, rc.executed);
  EXPECT_EQ(rs.shard_ops, rc.shard_ops);
}

TEST(LiveReplayFaults, SameSeedIsReproducible) {
  const auto trace = live_trace();
  fs::OrigamiFs::Options fopt;
  fopt.shards = 4;

  fs::LiveReplayOptions opt;
  opt.faults.seed = 91;
  opt.faults.crash_prob = 0.2;
  opt.faults.crash_recovery = sim::millis(400);
  opt.faults.rpc_loss_prob = 0.005;
  opt.epoch_ops = 4'000;

  fs::OrigamiFs fs_a(fopt);
  fs::OrigamiFs fs_b(fopt);
  const auto ra = fs::replay_on_live(trace, fs_a, opt);
  const auto rb = fs::replay_on_live(trace, fs_b, opt);
  EXPECT_EQ(ra.executed, rb.executed);
  EXPECT_EQ(ra.shard_ops, rb.shard_ops);
  EXPECT_EQ(ra.faults.crashes, rb.faults.crashes);
  EXPECT_EQ(ra.faults.failover_dirs, rb.faults.failover_dirs);
  EXPECT_EQ(ra.faults.retries, rb.faults.retries);
  EXPECT_EQ(ra.faults.fenced_rejections, rb.faults.fenced_rejections);
  EXPECT_EQ(ra.faults.journal_records, rb.faults.journal_records);
}

// ------------------------------------------------------------ fault plane --
// The crash protocol both engines share, driven directly over a toy
// namespace: fragments are ids with an owner, each weighing one unit.

class ToyNamespace final : public cluster::FaultNamespace {
 public:
  explicit ToyNamespace(std::vector<std::uint64_t> loads)
      : loads_(std::move(loads)) {}

  void own(std::uint64_t fragment, std::uint32_t entity) {
    owner_[fragment] = entity;
  }

  [[nodiscard]] bool down(std::uint32_t) const override { return false; }
  [[nodiscard]] std::vector<std::uint64_t> loads() const override {
    return loads_;
  }
  [[nodiscard]] std::vector<std::uint64_t> fragments_of(
      std::uint32_t entity) const override {
    std::vector<std::uint64_t> out;
    for (const auto& [fragment, owner] : owner_) {
      if (owner == entity) out.push_back(fragment);
    }
    return out;
  }
  [[nodiscard]] std::uint32_t owner(std::uint64_t fragment) const {
    return owner_.at(fragment);
  }
  [[nodiscard]] std::uint32_t ownership_epoch(
      std::uint64_t fragment) const override {
    const auto it = epoch_.find(fragment);
    return it == epoch_.end() ? 0 : it->second;
  }
  std::optional<std::uint64_t> move(std::uint64_t fragment, std::uint32_t from,
                                    std::uint32_t to) override {
    if (owner_.at(fragment) != from) return std::nullopt;
    owner_[fragment] = to;
    ++epoch_[fragment];
    return 1;
  }

 private:
  std::vector<std::uint64_t> loads_;
  std::map<std::uint64_t, std::uint32_t> owner_;
  std::map<std::uint64_t, std::uint32_t> epoch_;
};

fault::FaultPlan armed_plan() {
  fault::FaultPlan plan;
  plan.crash_prob = 0.1;  // any armed source creates the journals
  return plan;
}

TEST(FaultPlane, FailoverStampsBufferedRecordsDurableAtFailoverTime) {
  recovery::RecoveryParams params;
  params.commit_mode = recovery::CommitMode::kAsync;
  cluster::FaultPlane plane(armed_plan(), params, 3);
  // Entity 1 holds an acked op still waiting for its group commit.
  (void)plane.journal(1).append_op(/*op_id=*/1, /*node=*/10, sim::micros(100));
  plane.journal(1).note_acked(1, sim::micros(150));

  ToyNamespace ns({5, 1, 3});  // entity 1 is the least-loaded survivor
  ns.own(7, 0);
  cluster::RobustnessStats stats;
  const SimTime at = sim::millis(1);
  plane.crash(0, at, stats, nullptr);
  const auto out = plane.failover(0, at, ns, stats);
  ASSERT_EQ(out.moved.size(), 1u);
  EXPECT_EQ(ns.owner(7), 1u);

  // The kFailover append forces the buffer out at the failover instant, so
  // the ack-to-durable window is measured on the engine's clock.
  const auto& history = plane.journal(1).durability().history();
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history[0].durable_at, at);
  EXPECT_EQ(plane.journal(1).durability().max_ack_to_durable(),
            at - sim::micros(150));
}

TEST(FaultPlane, CrashOfAnEmptyOwnerReplaysAndTruncatesItsJournalOnce) {
  cluster::FaultPlane plane(armed_plan(), recovery::RecoveryParams{}, 3);
  (void)plane.journal(0).append_op(1, 10);
  (void)plane.journal(0).append_op(2, 11);

  ToyNamespace ns({0, 0, 0});
  ns.own(7, 1);  // entity 0 owns nothing at the crash
  cluster::RobustnessStats stats;
  plane.crash(0, sim::millis(1), stats, nullptr);
  const auto out = plane.failover(0, sim::millis(1), ns, stats);

  EXPECT_TRUE(out.moved.empty());
  EXPECT_TRUE(out.replay.torn_tail);
  EXPECT_EQ(out.replay.replayed_records, 2u);
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.journal_replays, 1u);
  EXPECT_EQ(stats.journal_replayed_records, 2u);
  EXPECT_EQ(stats.failovers, 0u);
  EXPECT_EQ(stats.recovery_windows, 0u);
  EXPECT_EQ(plane.journal(0).torn_truncations(), 1u);

  // The restart's log is clean: a later append survives the next scan.
  (void)plane.journal(0).append_op(3, 12);
  const auto again = plane.journal(0).recover_replay();
  EXPECT_EQ(again.replayed_records, 3u);
  EXPECT_FALSE(again.torn_tail);
  EXPECT_EQ(plane.journal(0).torn_truncations(), 1u);
}

TEST(FaultPlane, RestoreSkipsAFragmentTheBalancerMovedAfterFailover) {
  cluster::FaultPlane plane(armed_plan(), recovery::RecoveryParams{}, 3);
  ToyNamespace ns({0, 0, 10});
  ns.own(7, 0);
  ns.own(8, 0);
  cluster::RobustnessStats stats;
  plane.crash(0, sim::millis(1), stats, nullptr);
  const auto out = plane.failover(0, sim::millis(1), ns, stats);
  ASSERT_EQ(out.moved.size(), 2u);
  ASSERT_EQ(ns.owner(7), 1u);
  ASSERT_EQ(ns.owner(8), 1u);

  (void)ns.move(8, 1, 2);  // the balancer moves one on before recovery
  const auto back = plane.restore(0, sim::millis(5), ns, stats);
  EXPECT_EQ(back.fragments, 1u);
  EXPECT_EQ(ns.owner(7), 0u);
  EXPECT_EQ(ns.owner(8), 2u);
  EXPECT_EQ(stats.restored_dirs, 1u);
  // The skipped fragment is forgotten, not kept for a later recovery.
  (void)ns.move(8, 2, 1);
  EXPECT_EQ(plane.restore(0, sim::millis(9), ns, stats).fragments, 0u);

  const auto view = plane.journal(0).snapshot();
  ASSERT_EQ(view.live.size(), 1u);
  EXPECT_EQ(view.live[0].kind, recovery::JournalRecordKind::kRestore);
  EXPECT_EQ(view.live[0].node, 7u);
  EXPECT_EQ(view.live[0].from, 1u);
  EXPECT_EQ(view.live[0].to, 0u);
}

// ------------------------------------------------------ fault-plane goldens --
// Crash storage, failover, restore and the journal roll-up pinned byte for
// byte in both engines (tests/support/fault_plane_golden_configs.hpp).

TEST(FaultPlaneGolden, EpochKvBackedSyncCommit) {
  for (std::uint64_t seed : {1, 2, 3}) {
    EXPECT_EQ(testing::fault_plane_epoch_run(seed, /*async=*/false),
              fault_plane_golden("epoch-kv-sync/" + std::to_string(seed)))
        << "seed " << seed;
  }
}

TEST(FaultPlaneGolden, EpochKvBackedAsyncCommit) {
  for (std::uint64_t seed : {1, 2, 3}) {
    EXPECT_EQ(testing::fault_plane_epoch_run(seed, /*async=*/true),
              fault_plane_golden("epoch-kv-async/" + std::to_string(seed)))
        << "seed " << seed;
  }
}

TEST(FaultPlaneGolden, LiveGroupCommittingShardsUnderPolicy) {
  for (std::uint64_t seed : {1, 2, 3}) {
    EXPECT_EQ(testing::fault_plane_live_run(seed),
              fault_plane_golden("live-kv-async/" + std::to_string(seed)))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace origami
