// Tests for the DES replay engine: completion, RPC accounting, caching,
// epochs, determinism, static partitioners, data path.
#include <gtest/gtest.h>

#include "origami/cluster/plan.hpp"
#include "origami/cluster/replay.hpp"
#include "origami/common/flags.hpp"
#include "origami/wl/generators.hpp"

namespace origami::cluster {
namespace {

wl::Trace tiny_trace(std::uint64_t ops = 20'000) {
  wl::TraceRwConfig cfg;
  cfg.ops = ops;
  cfg.projects = 6;
  cfg.modules_per_project = 4;
  cfg.sources_per_module = 10;
  cfg.headers_shared = 100;
  return wl::make_trace_rw(cfg);
}

ReplayOptions fast_options() {
  ReplayOptions opt;
  opt.mds_count = 3;
  opt.clients = 16;
  opt.epoch_length = sim::millis(100);
  opt.warmup_epochs = 2;
  opt.net_params.jitter_frac = 0.0;  // exact determinism for tests
  return opt;
}

TEST(RequestPlanner, ReusedPlanEqualsAFreshPlanForEveryOp) {
  // An in-flight slot's plan is planned over whatever the slot last held.
  // Start every op from a readdir fan-out marked ns_cross with an op id,
  // and the result must still equal a plan built into a fresh Plan. Two
  // planners with caches of their own see the same op sequence, so their
  // near-root cache outcomes agree.
  const wl::Trace trace = tiny_trace();
  mds::PartitionMap partition(trace.tree, 3);
  StaticBalancer(StaticBalancer::Kind::kFineHash).prepare(trace.tree,
                                                          partition);
  const cost::CostParams params;
  const cost::CostModel model(params);
  mds::NearRootCache fresh_cache(trace.tree.size(), 3, true);
  mds::NearRootCache reused_cache(trace.tree.size(), 3, true);
  RequestPlanner fresh_planner(trace.tree, partition, fresh_cache, model,
                               params);
  RequestPlanner reused_planner(trace.tree, partition, reused_cache, model,
                                params);

  Plan dirty;
  {
    mds::NearRootCache cache(trace.tree.size(), 3, true);
    RequestPlanner planner(trace.tree, partition, cache, model, params);
    for (const wl::MetaOp& op : trace.ops) {
      if (op.type != fsns::OpType::kReaddir) continue;
      planner.build_plan(op, dirty);
      if (dirty.lsdir_spread > 0) break;
    }
  }
  ASSERT_GT(dirty.lsdir_spread, 0u);
  dirty.ns_cross = true;
  dirty.op_id = 99;

  Plan reused;
  for (std::size_t i = 0; i < trace.ops.size(); ++i) {
    Plan fresh;
    fresh_planner.build_plan(trace.ops[i], fresh);
    reused = dirty;
    reused_planner.build_plan(trace.ops[i], reused);
    ASSERT_EQ(reused, fresh) << "op " << i;
  }
}

TEST(Replay, CompletesAllOps) {
  const wl::Trace trace = tiny_trace();
  ReplayOptions opt = fast_options();
  StaticBalancer balancer(StaticBalancer::Kind::kSingle);
  const RunResult r = replay_trace(trace, opt, balancer);
  EXPECT_EQ(r.completed_ops, trace.ops.size());
  EXPECT_GT(r.makespan, 0);
  EXPECT_GT(r.throughput_ops, 0.0);
  EXPECT_EQ(r.balancer_name, "single");
  EXPECT_EQ(r.mds_count, 3u);
}

TEST(Replay, SingleMdsWithCacheIsOneRpcPerRequest) {
  const wl::Trace trace = tiny_trace(10'000);
  ReplayOptions opt = fast_options();
  opt.mds_count = 1;
  StaticBalancer balancer(StaticBalancer::Kind::kSingle);
  const RunResult r = replay_trace(trace, opt, balancer);
  // Everything is local: exactly one visit per request.
  EXPECT_DOUBLE_EQ(r.rpc_per_request, 1.0);
  EXPECT_EQ(r.forwarded_requests, 0u);
}

TEST(Replay, FineHashForwardsMoreThanCoarse) {
  const wl::Trace trace = tiny_trace();
  ReplayOptions opt = fast_options();
  StaticBalancer coarse(StaticBalancer::Kind::kCoarseHash);
  StaticBalancer fine(StaticBalancer::Kind::kFineHash);
  const RunResult rc = replay_trace(trace, opt, coarse);
  const RunResult rf = replay_trace(trace, opt, fine);
  EXPECT_GT(rf.rpc_per_request, rc.rpc_per_request);
  EXPECT_GT(rf.forwarded_requests, 0u);
}

TEST(Replay, CacheReducesRpcs) {
  const wl::Trace trace = tiny_trace();
  ReplayOptions with_cache = fast_options();
  ReplayOptions no_cache = fast_options();
  no_cache.cache_enabled = false;
  StaticBalancer b1(StaticBalancer::Kind::kFineHash);
  StaticBalancer b2(StaticBalancer::Kind::kFineHash);
  const RunResult rc = replay_trace(trace, with_cache, b1);
  const RunResult rn = replay_trace(trace, no_cache, b2);
  EXPECT_LT(rc.rpc_per_request, rn.rpc_per_request);
  EXPECT_GT(rc.cache.hits, 0u);
  EXPECT_EQ(rn.cache.hits, 0u);
  // Caching also improves throughput (Table 2's headline effect).
  EXPECT_GT(rc.throughput_ops, rn.throughput_ops);
}

TEST(Replay, DeterministicAcrossRuns) {
  const wl::Trace trace = tiny_trace(8'000);
  ReplayOptions opt = fast_options();
  opt.net_params.jitter_frac = 0.05;  // jitter is seeded, still deterministic
  StaticBalancer b1(StaticBalancer::Kind::kCoarseHash);
  StaticBalancer b2(StaticBalancer::Kind::kCoarseHash);
  const RunResult a = replay_trace(trace, opt, b1);
  const RunResult b = replay_trace(trace, opt, b2);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.total_rpcs, b.total_rpcs);
  EXPECT_EQ(a.completed_ops, b.completed_ops);
  EXPECT_DOUBLE_EQ(a.throughput_ops, b.throughput_ops);
}

TEST(Replay, EpochsAreRecordedWithMdsBreakdown) {
  const wl::Trace trace = tiny_trace();
  ReplayOptions opt = fast_options();
  StaticBalancer balancer(StaticBalancer::Kind::kCoarseHash);
  const RunResult r = replay_trace(trace, opt, balancer);
  ASSERT_GT(r.epochs.size(), 2u);
  std::uint64_t epoch_ops = 0;
  for (const EpochMetrics& em : r.epochs) {
    ASSERT_EQ(em.mds.size(), 3u);
    EXPECT_GE(em.end, em.start);
    for (const auto& m : em.mds) epoch_ops += m.ops;
  }
  // All executed ops fall into some epoch (last partial epoch may be cut).
  EXPECT_LE(epoch_ops, r.completed_ops);
  EXPECT_GT(epoch_ops, r.completed_ops * 8 / 10);
}

TEST(Replay, MoreClientsMoreThroughputUntilSaturation) {
  const wl::Trace trace = tiny_trace();
  ReplayOptions low = fast_options();
  low.clients = 1;
  ReplayOptions high = fast_options();
  high.clients = 32;
  StaticBalancer b1(StaticBalancer::Kind::kSingle);
  StaticBalancer b2(StaticBalancer::Kind::kSingle);
  const RunResult rl = replay_trace(trace, low, b1);
  const RunResult rh = replay_trace(trace, high, b2);
  EXPECT_GT(rh.throughput_ops, rl.throughput_ops * 2);
}

TEST(Replay, SingleClientLatencyIsServicePlusNetwork) {
  const wl::Trace trace = tiny_trace(5'000);
  ReplayOptions opt = fast_options();
  opt.mds_count = 1;
  opt.clients = 1;
  StaticBalancer balancer(StaticBalancer::Kind::kSingle);
  const RunResult r = replay_trace(trace, opt, balancer);
  // No queueing with one client: latency ~ rtt + service, well under 1ms.
  EXPECT_GT(r.mean_latency_us, 100.0);
  EXPECT_LT(r.mean_latency_us, 1000.0);
  EXPECT_GE(r.p99_latency_us, r.p50_latency_us);
}

TEST(Replay, TimeLimitCutsRunAndLoops) {
  const wl::Trace trace = tiny_trace(2'000);  // short trace
  ReplayOptions opt = fast_options();
  opt.loop_trace = true;
  opt.time_limit = sim::seconds(2);
  StaticBalancer balancer(StaticBalancer::Kind::kCoarseHash);
  const RunResult r = replay_trace(trace, opt, balancer);
  // The 2k-op trace must have been replayed several times over 2 seconds.
  EXPECT_GT(r.completed_ops, 4'000u);
  EXPECT_LE(r.makespan, sim::seconds(2) + sim::millis(100));
}

TEST(Replay, ImbalanceFactorsWithinRange) {
  const wl::Trace trace = tiny_trace();
  ReplayOptions opt = fast_options();
  StaticBalancer balancer(StaticBalancer::Kind::kFineHash);
  const RunResult r = replay_trace(trace, opt, balancer);
  for (double f : {r.imf_qps, r.imf_rpc, r.imf_inodes, r.imf_busy}) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
  }
}

TEST(Replay, DataPathAddsLatencyAndTracksBytes) {
  const wl::Trace trace = tiny_trace(10'000);
  ReplayOptions meta_only = fast_options();
  ReplayOptions with_data = fast_options();
  with_data.data_path = true;
  StaticBalancer b1(StaticBalancer::Kind::kCoarseHash);
  StaticBalancer b2(StaticBalancer::Kind::kCoarseHash);
  const RunResult rm = replay_trace(trace, meta_only, b1);
  const RunResult rd = replay_trace(trace, with_data, b2);
  EXPECT_EQ(rm.data_requests, 0u);
  EXPECT_GT(rd.data_requests, 0u);
  EXPECT_GT(rd.data_throughput_mb_s, 0.0);
  // End-to-end throughput is below metadata-only (Fig. 9b vs 9a).
  EXPECT_LT(rd.throughput_ops, rm.throughput_ops);
}

TEST(Replay, KvBackingExecutesRealStoreOps) {
  const wl::Trace trace = tiny_trace(5'000);
  ReplayOptions opt = fast_options();
  opt.kv_backing = true;
  StaticBalancer balancer(StaticBalancer::Kind::kCoarseHash);
  const RunResult r = replay_trace(trace, opt, balancer);
  EXPECT_EQ(r.completed_ops, trace.ops.size());
}

// A balancer that migrates one fixed subtree at the first epoch, to test
// the Migrator path of the replay engine.
class OneShotMigrator final : public Balancer {
 public:
  explicit OneShotMigrator(fsns::NodeId subtree) : subtree_(subtree) {}
  [[nodiscard]] std::string name() const override { return "one-shot"; }
  std::vector<MigrationDecision> rebalance(const EpochSnapshot& snap,
                                           const fsns::DirTree&,
                                           const mds::PartitionMap& map) override {
    if (fired_ || snap.epoch < 1) return {};
    fired_ = true;
    return {{subtree_, map.dir_owner(subtree_), 1, 1.0}};
  }
  bool fired_ = false;
  fsns::NodeId subtree_;
};

TEST(Replay, MigrationsAreExecutedAndCounted) {
  const wl::Trace trace = tiny_trace();
  // Pick some project directory (child of /src).
  const auto& root_children = trace.tree.node(fsns::kRootNode).children;
  const fsns::NodeId src = root_children[0];
  const fsns::NodeId proj = trace.tree.node(src).children[0];

  ReplayOptions opt = fast_options();
  OneShotMigrator balancer(proj);
  const RunResult r = replay_trace(trace, opt, balancer);
  EXPECT_EQ(r.migrations, 1u);
  EXPECT_GT(r.inodes_migrated, 0u);
  // After migration some requests must be routed to MDS 1.
  std::uint64_t mds1_ops = 0;
  for (const auto& em : r.epochs) mds1_ops += em.mds[1].ops;
  EXPECT_GT(mds1_ops, 0u);
}

TEST(Replay, StaleCacheForwardsAfterMigration) {
  const wl::Trace trace = tiny_trace();
  const auto& root_children = trace.tree.node(fsns::kRootNode).children;
  const fsns::NodeId src = root_children[0];

  ReplayOptions opt = fast_options();
  opt.cache_depth = 4;  // project dirs are cacheable
  OneShotMigrator balancer(src);
  const RunResult r = replay_trace(trace, opt, balancer);
  EXPECT_GT(r.cache.stale, 0u);
}

// --------------------------------------------------------- shared CLI flags --

common::Result<ReplayOptions> parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"test"};
  argv.insert(argv.end(), args.begin(), args.end());
  const common::Flags flags(static_cast<int>(argv.size()), argv.data());
  return options_from_flags(flags);
}

TEST(OptionsFromFlags, ParsesCommitVocabulary) {
  auto parsed = parse({"--fault-crash-prob", "0.1", "--commit-mode", "async",
                       "--commit-window", "1.5", "--commit-batch", "32"});
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const ReplayOptions opt = std::move(parsed).value();
  EXPECT_EQ(opt.recovery.commit_mode, recovery::CommitMode::kAsync);
  EXPECT_EQ(opt.recovery.commit_window, sim::millis(1.5));
  EXPECT_EQ(opt.recovery.commit_batch, 32u);

  auto sync = parse({"--commit-mode", "sync"});
  ASSERT_TRUE(sync.is_ok());
  EXPECT_EQ(std::move(sync).value().recovery.commit_mode,
            recovery::CommitMode::kSync);
}

TEST(OptionsFromFlags, RejectsUnknownOwnedFlags) {
  // A typo inside the owned --fault-*/--retry-*/--commit-* prefixes must
  // fail fast, naming every offender — not silently run a different
  // experiment under the right label.
  auto parsed = parse({"--fault-crash-prb", "0.1", "--commit-windw", "2"});
  ASSERT_FALSE(parsed.is_ok());
  const std::string msg = parsed.status().to_string();
  EXPECT_NE(msg.find("--fault-crash-prb"), std::string::npos) << msg;
  EXPECT_NE(msg.find("--commit-windw"), std::string::npos) << msg;

  // Flags outside the owned prefixes belong to the caller: not an error.
  auto foreign = parse({"--smoke", "--ops", "1000"});
  EXPECT_TRUE(foreign.is_ok());
}

TEST(OptionsFromFlags, RejectsBadCommitMode) {
  auto parsed = parse({"--commit-mode", "eventually"});
  ASSERT_FALSE(parsed.is_ok());
  EXPECT_NE(parsed.status().to_string().find("eventually"), std::string::npos);
}

TEST(OptionsFromFlags, AsyncKvBackingRequiresWritableWalDir) {
  // Async group commit over the real store fsyncs a real log; without a
  // writable --kv-wal-dir the measured-durability contract is meaningless,
  // so the combination must fail fast instead of silently running with an
  // in-memory WAL.
  auto parsed = parse({"--kv-backing", "--commit-mode", "async"});
  ASSERT_FALSE(parsed.is_ok());
  EXPECT_NE(parsed.status().to_string().find("--kv-wal-dir"),
            std::string::npos)
      << parsed.status().to_string();

  const std::string dir = ::testing::TempDir();
  auto with_dir = parse(
      {"--kv-backing", "--commit-mode", "async", "--kv-wal-dir", dir.c_str()});
  ASSERT_TRUE(with_dir.is_ok()) << with_dir.status().to_string();
  EXPECT_EQ(std::move(with_dir).value().kv_wal_dir, dir);

  auto bad_dir = parse({"--kv-backing", "--commit-mode", "async",
                        "--kv-wal-dir", "/nonexistent/origami/wal/dir"});
  ASSERT_FALSE(bad_dir.is_ok());
  EXPECT_NE(bad_dir.status().to_string().find("not a writable"),
            std::string::npos)
      << bad_dir.status().to_string();
}

TEST(OptionsFromFlags, KvWalDirOptionalOutsideAsyncKvBacking) {
  // Sync mode appends every record inline — no group commit, no fsync
  // batching — so the real store runs fine without a log directory.
  auto sync_kv = parse({"--kv-backing", "--commit-mode", "sync"});
  EXPECT_TRUE(sync_kv.is_ok()) << sync_kv.status().to_string();

  // Async without the real store only drives the modeled journal.
  auto async_model = parse({"--commit-mode", "async"});
  EXPECT_TRUE(async_model.is_ok()) << async_model.status().to_string();
}

void expect_rejected(const char* flag, const char* value) {
  const std::string name = std::string("--") + flag;
  auto r = parse({name.c_str(), value});
  ASSERT_FALSE(r.is_ok()) << name << " '" << value << "' accepted";
  EXPECT_EQ(r.status().code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find(name), std::string::npos)
      << r.status().to_string();
}

TEST(OptionsFromFlags, RejectsZeroMdsClientsAndEpochs) {
  // --mds=0 segfaulted, --epoch-ms=0 never finished, and --clients=0
  // issued nothing.
  for (const char* flag : {"mds", "clients", "epoch-ms"}) {
    expect_rejected(flag, "0");
  }
}

TEST(OptionsFromFlags, RejectsIntegersThatAreNotPlainDigits) {
  // strtoll read "abc" as 0, "-3" as 4,294,967,293 clients and "1e3" as 1.
  expect_rejected("mds", "abc");
  expect_rejected("clients", "-3");
  expect_rejected("epoch-ms", "1e3");
  expect_rejected("commit-batch", "64x");
  expect_rejected("fault-recovery-ms", "");
  expect_rejected("retry-max", "+2");
  expect_rejected("mds", "4294967296");
}

TEST(OptionsFromFlags, RejectsProbabilitiesOutsideTheUnitInterval) {
  // strtod read "abc" as 0 (a fault-free run) and "0.2x" as 0.2.
  expect_rejected("fault-crash-prob", "abc");
  expect_rejected("fault-crash-prob", "0.2x");
  expect_rejected("fault-crash-prob", "1.5");
  expect_rejected("fault-straggler-prob", "-0.1");
  expect_rejected("fault-loss-prob", "nan");
  expect_rejected("fault-corrupt-prob", "inf");
}

TEST(OptionsFromFlags, RejectsMalformedCrashSchedules) {
  // Trailing characters, negative starts and durations, and an MDS the
  // cluster does not have were all accepted; the last one never crashed.
  for (const char* bad :
       {"1@5+3xyz", "1@-5+3", "1@5+-3", "9@5+3", "5@5+3", "1@5+3,", "",
        "1@5", "@5+3", "1@+3", "x@5+3", "-1@5+3", "1@5+3,,2@1+1"}) {
    expect_rejected("fault-crash-at", bad);
  }
  auto r = parse({"--mds", "10", "--fault-crash-at", "9@5+3"});
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
}

TEST(OptionsFromFlags, ParsesCrashSchedule) {
  auto parsed = parse({"--fault-crash-at", "1@5+3,0@0+0,4@1e3+2.5"});
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const auto& windows = parsed.value().faults.scheduled;
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].mds, 1u);
  EXPECT_EQ(windows[0].kind, fault::FaultKind::kCrash);
  EXPECT_EQ(windows[0].from, sim::millis(5));
  EXPECT_EQ(windows[0].until, sim::millis(8));
  EXPECT_EQ(windows[1].from, 0);
  EXPECT_EQ(windows[1].until, 0);
  EXPECT_EQ(windows[2].mds, 4u);
  EXPECT_EQ(windows[2].from, sim::millis(1000));
  EXPECT_EQ(windows[2].until, sim::millis(1000) + sim::millis(2.5));
}

TEST(OptionsFromFlags, ReadsTheValuesCiAndTheBenchesPass) {
  auto parsed = parse({"--mds",           "5",    "--clients",
                       "50",              "--epoch-ms", "50",
                       "--warmup-epochs", "2",    "--fault-seed",
                       "911",             "--fault-crash-prob", "0.05",
                       "--fault-recovery-ms", "300", "--commit-window",
                       "2",               "--commit-batch", "64",
                       "--retry-timeout-ms", "0.5"});
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const ReplayOptions opt = std::move(parsed).value();
  EXPECT_EQ(opt.mds_count, 5u);
  EXPECT_EQ(opt.clients, 50u);
  EXPECT_EQ(opt.epoch_length, sim::millis(50));
  EXPECT_EQ(opt.warmup_epochs, 2u);
  EXPECT_EQ(opt.faults.seed, 911u);
  EXPECT_EQ(opt.faults.crash_prob, 0.05);
  EXPECT_EQ(opt.faults.crash_recovery, sim::millis(300));
  EXPECT_EQ(opt.recovery.commit_window, sim::millis(2.0));
  EXPECT_EQ(opt.recovery.commit_batch, 64u);
  EXPECT_EQ(opt.retry.timeout, sim::millis(0.5));
}

}  // namespace
}  // namespace origami::cluster
