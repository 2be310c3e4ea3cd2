// The parallel analysis plane must be a pure optimisation: window analysis,
// Meta-OPT decisions, training data and whole-run CSV output are required to
// be bit-identical at any analysis thread count. These tests pin that
// contract (threads 1 vs 8, three seeds) plus the deterministic-chunking and
// parallel_for edge cases the reductions rely on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "origami/cluster/replay.hpp"
#include "origami/common/csv.hpp"
#include "origami/common/small_set.hpp"
#include "origami/common/thread_pool.hpp"
#include "origami/core/balancers.hpp"
#include "origami/core/meta_opt.hpp"
#include "origami/core/pipeline.hpp"
#include "origami/fs/live_replay.hpp"
#include "origami/wl/generators.hpp"

#include "support/fingerprints.hpp"
#include "support/live_policy_golden_configs.hpp"

namespace origami {
namespace {

/// Restores the process-wide analysis pool to serial when a test exits, so
/// test order can never leak a parallel pool into unrelated suites.
struct SerialPoolGuard {
  ~SerialPoolGuard() { common::set_analysis_threads(1); }
};

wl::Trace small_trace(std::uint64_t seed) {
  wl::TraceRwConfig cfg;
  cfg.ops = 30'000;
  cfg.seed = seed;
  return wl::make_trace_rw(cfg);
}

// ------------------------------------------------------ parallel_for edges --

TEST(ParallelFor, EmptyRangeRunsNothing) {
  common::ThreadPool pool(4);
  std::atomic<int> calls{0};
  common::parallel_for(pool, 0, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, RangeBelowMinChunkRunsInline) {
  common::ThreadPool pool(4);
  std::atomic<int> calls{0};
  std::vector<int> hit(10, 0);
  common::parallel_for(
      pool, 10,
      [&](std::size_t b, std::size_t e) {
        ++calls;
        for (std::size_t i = b; i < e; ++i) hit[i] = 1;
      },
      /*min_chunk=*/1024);
  EXPECT_EQ(calls.load(), 1);  // degenerates to one direct call
  for (int h : hit) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, IndivisibleRangeCoversEveryIndexOnce) {
  common::ThreadPool pool(3);
  const std::size_t n = 1001;  // not divisible by any chunking of 3 workers
  std::vector<std::atomic<int>> hits(n);
  common::parallel_for(
      pool, n,
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
      },
      /*min_chunk=*/64);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

// ------------------------------------------------- deterministic chunking --

TEST(ChunkedReduction, BoundariesIndependentOfPoolSize) {
  // chunk_count depends only on (n, grain) — never on worker count.
  EXPECT_EQ(common::chunk_count(0, 100), 0u);
  EXPECT_EQ(common::chunk_count(99, 100), 1u);
  EXPECT_EQ(common::chunk_count(100, 100), 1u);
  EXPECT_EQ(common::chunk_count(101, 100), 2u);
  EXPECT_EQ(common::chunk_count(1'000'000, 100), common::kMaxChunks);

  for (std::size_t workers : {1u, 2u, 7u}) {
    common::ThreadPool pool(workers);
    const std::size_t n = 10'000;
    std::vector<std::vector<std::size_t>> bounds(
        common::chunk_count(n, 128), std::vector<std::size_t>{});
    common::parallel_for_chunks(
        pool, n, 128, [&](std::size_t c, std::size_t b, std::size_t e) {
          bounds[c] = {b, e};
        });
    // Every worker count sees the same chunk boundaries.
    std::size_t expect_begin = 0;
    for (const auto& be : bounds) {
      if (be.empty()) continue;
      EXPECT_EQ(be[0], expect_begin);
      expect_begin = be[1];
    }
    EXPECT_EQ(expect_begin, n);
  }
}

TEST(ChunkedReduction, ChunkOrderMergeMatchesSerialSum) {
  common::ThreadPool pool(8);
  const std::size_t n = 54'321;
  std::vector<std::int64_t> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = static_cast<std::int64_t>((i * 2654435761u) % 1000) - 500;
  }
  std::int64_t serial = 0;
  for (std::int64_t v : values) serial += v;

  std::vector<std::int64_t> partial(common::chunk_count(n, 1024), 0);
  common::parallel_for_chunks(
      pool, n, 1024, [&](std::size_t c, std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) partial[c] += values[i];
      });
  std::int64_t merged = 0;
  for (std::int64_t p : partial) merged += p;
  EXPECT_EQ(merged, serial);
}

// -------------------------------------------------------------- small set --

TEST(SmallSet, CountsDistinctBeyondInlineCapacity) {
  common::SmallSet<std::uint32_t, 4> set;
  for (std::uint32_t round = 0; round < 3; ++round) {
    for (std::uint32_t v = 0; v < 100; ++v) {
      const bool fresh = set.insert(v);
      EXPECT_EQ(fresh, round == 0) << v;
    }
  }
  EXPECT_EQ(set.size(), 100u);  // the old fixed cap would have stopped at 4
  EXPECT_TRUE(set.contains(0));
  EXPECT_TRUE(set.contains(99));
  EXPECT_FALSE(set.contains(100));
  set.clear();
  EXPECT_TRUE(set.empty());
}

// ----------------------------------------------- analysis-plane identity --

TEST(Determinism, WindowAnalysisBitIdenticalAcrossThreadCounts) {
  SerialPoolGuard guard;
  for (std::uint64_t seed : {1, 2, 3}) {
    const wl::Trace trace = small_trace(seed);
    mds::PartitionMap map(trace.tree, 7);
    cluster::StaticBalancer chash(cluster::StaticBalancer::Kind::kCoarseHash);
    chash.prepare(trace.tree, map);
    const cost::CostModel model;

    common::set_analysis_threads(1);
    std::vector<sim::SimTime> dir_rct_1;
    const auto bins_1 = core::evaluate_window(trace.ops, trace.tree, map,
                                              model, true, 3, &dir_rct_1);
    const auto dirs_1 =
        core::window_dir_stats(trace.ops, trace.tree, map, model, true, 3);

    common::set_analysis_threads(8);
    std::vector<sim::SimTime> dir_rct_8;
    const auto bins_8 = core::evaluate_window(trace.ops, trace.tree, map,
                                              model, true, 3, &dir_rct_8);
    const auto dirs_8 =
        core::window_dir_stats(trace.ops, trace.tree, map, model, true, 3);

    EXPECT_EQ(bins_1.per_mds(), bins_8.per_mds()) << "seed " << seed;
    EXPECT_EQ(dir_rct_1, dir_rct_8) << "seed " << seed;
    ASSERT_EQ(dirs_1.size(), dirs_8.size());
    for (std::size_t i = 0; i < dirs_1.size(); ++i) {
      EXPECT_EQ(dirs_1[i].reads, dirs_8[i].reads);
      EXPECT_EQ(dirs_1[i].writes, dirs_8[i].writes);
      EXPECT_EQ(dirs_1[i].lsdir, dirs_8[i].lsdir);
      EXPECT_EQ(dirs_1[i].nsm_self, dirs_8[i].nsm_self);
      EXPECT_EQ(dirs_1[i].rct, dirs_8[i].rct);
    }
  }
}

TEST(Determinism, MetaOptDecisionsAndLabelsBitIdentical) {
  SerialPoolGuard guard;
  for (std::uint64_t seed : {1, 2, 3}) {
    const wl::Trace trace = small_trace(seed);
    mds::PartitionMap map(trace.tree, 7);
    cluster::StaticBalancer chash(cluster::StaticBalancer::Kind::kCoarseHash);
    chash.prepare(trace.tree, map);
    const cost::CostModel model;
    const core::MetaOpt engine(model, core::MetaOptParams{});

    common::set_analysis_threads(1);
    std::vector<core::MetaOpt::Labelled> labels_1;
    const auto dec_1 = engine.optimize(trace.ops, trace.tree, map, &labels_1);

    common::set_analysis_threads(8);
    std::vector<core::MetaOpt::Labelled> labels_8;
    const auto dec_8 = engine.optimize(trace.ops, trace.tree, map, &labels_8);

    ASSERT_EQ(dec_1.size(), dec_8.size()) << "seed " << seed;
    for (std::size_t i = 0; i < dec_1.size(); ++i) {
      EXPECT_EQ(dec_1[i].subtree, dec_8[i].subtree);
      EXPECT_EQ(dec_1[i].from, dec_8[i].from);
      EXPECT_EQ(dec_1[i].to, dec_8[i].to);
      EXPECT_EQ(dec_1[i].predicted_benefit, dec_8[i].predicted_benefit);
    }
    ASSERT_EQ(labels_1.size(), labels_8.size()) << "seed " << seed;
    for (std::size_t i = 0; i < labels_1.size(); ++i) {
      EXPECT_EQ(labels_1[i].subtree, labels_8[i].subtree);
      EXPECT_EQ(labels_1[i].from, labels_8[i].from);
      EXPECT_EQ(labels_1[i].to, labels_8[i].to);
      EXPECT_EQ(labels_1[i].benefit, labels_8[i].benefit);
      EXPECT_EQ(labels_1[i].load, labels_8[i].load);
      EXPECT_EQ(labels_1[i].overhead, labels_8[i].overhead);
    }
  }
}

TEST(Determinism, TrainingDataBitIdenticalAcrossThreadCounts) {
  SerialPoolGuard guard;
  const wl::Trace trace = small_trace(5);
  core::LabelGenOptions lg;
  lg.replay.mds_count = 4;
  lg.replay.epoch_length = sim::millis(250);
  lg.replay.warmup_epochs = 2;

  lg.threads = 1;
  const auto r1 = core::generate_labels(trace, lg);
  lg.threads = 8;
  const auto r8 = core::generate_labels(trace, lg);

  ASSERT_EQ(r1.benefit_data.size(), r8.benefit_data.size());
  EXPECT_EQ(r1.benefit_data.labels(), r8.benefit_data.labels());
  for (std::size_t i = 0; i < r1.benefit_data.size(); ++i) {
    const auto a = r1.benefit_data.row(i);
    const auto b = r8.benefit_data.row(i);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t f = 0; f < a.size(); ++f) EXPECT_EQ(a[f], b[f]);
  }
  ASSERT_EQ(r1.popularity_data.size(), r8.popularity_data.size());
  EXPECT_EQ(r1.popularity_data.labels(), r8.popularity_data.labels());
  EXPECT_EQ(r1.run.completed_ops, r8.run.completed_ops);
  EXPECT_EQ(r1.run.makespan, r8.run.makespan);
}

// Replays the trace under the Meta-OPT oracle and dumps a fig5_overall-style
// CSV row; the two files must match byte for byte.
std::string run_and_dump_csv(const wl::Trace& trace, std::size_t threads,
                             const std::string& path) {
  common::set_analysis_threads(threads);
  cluster::ReplayOptions opt;
  opt.mds_count = 4;
  opt.clients = 16;
  opt.epoch_length = sim::millis(250);
  opt.warmup_epochs = 2;
  core::MetaOptOracleBalancer balancer(cost::CostModel(opt.cost_params),
                                       core::MetaOptParams{},
                                       core::RebalanceTrigger{0.05});
  const auto r = cluster::replay_trace(trace, opt, balancer);
  {
    common::CsvWriter csv(path);
    csv.header({"strategy", "mds", "throughput", "steady_throughput",
                "mean_latency_us", "p99_latency_us", "rpc_per_request",
                "migrations", "inodes_migrated", "makespan_ns"});
    csv.field(r.balancer_name)
        .field(static_cast<std::uint64_t>(r.mds_count))
        .field(r.throughput_ops)
        .field(r.steady_throughput_ops)
        .field(r.mean_latency_us)
        .field(r.p99_latency_us)
        .field(r.rpc_per_request)
        .field(r.migrations)
        .field(r.inodes_migrated)
        .field(static_cast<std::int64_t>(r.makespan));
    csv.endrow();
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(Determinism, ReplayCsvByteIdenticalAcrossThreadCounts) {
  SerialPoolGuard guard;
  for (std::uint64_t seed : {1, 2, 3}) {
    const wl::Trace trace = small_trace(seed);
    const std::string p1 = ::testing::TempDir() + "det_t1.csv";
    const std::string p8 = ::testing::TempDir() + "det_t8.csv";
    const std::string csv_1 = run_and_dump_csv(trace, 1, p1);
    const std::string csv_8 = run_and_dump_csv(trace, 8, p8);
    EXPECT_FALSE(csv_1.empty());
    EXPECT_EQ(csv_1, csv_8) << "seed " << seed;
    std::remove(p1.c_str());
    std::remove(p8.c_str());
  }
}

// ------------------------------------------------- live-mode determinism --

/// Serialises everything a live replay reports, so two runs can be compared
/// for bit-identity with a single string equality.
std::string live_stats_fingerprint(const fs::LiveReplayStats& s) {
  std::ostringstream out;
  out << s.executed << ' ' << s.failed << ' ' << s.epochs << ' '
      << s.migrations << ' ' << s.shard_imbalance << '\n';
  for (std::uint64_t ops : s.shard_ops) out << ops << ' ';
  out << '\n';
  // Virtual-clock serving metrics, including the full latency histogram
  // shape (count/mean/min/max and a quantile ladder): byte-identity here
  // means the per-shard partials merged identically.
  out << s.makespan << ' ' << s.throughput_ops << ' ' << s.latency.count()
      << ' ' << s.latency.mean() << ' ' << s.latency.min() << ' '
      << s.latency.max();
  for (double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    out << ' ' << s.latency.quantile(q);
  }
  out << '\n';
  for (sim::SimTime b : s.shard_busy) out << b << ' ';
  out << '\n';
  for (std::uint64_t n : s.shard_served) out << n << ' ';
  out << '\n';
  const cluster::RobustnessStats& f = s.faults;
  out << f.retries << ' ' << f.timeouts << ' ' << f.rpcs_lost << ' '
      << f.rpcs_corrupted << ' ' << f.failed_ops << ' ' << f.crashes << ' '
      << f.failovers << ' ' << f.failover_dirs << ' ' << f.restored_dirs
      << ' ' << f.aborted_migrations << ' ' << f.time_down << ' '
      << f.journal_records << ' ' << f.journal_checkpoints << ' '
      << f.journal_replays << ' ' << f.journal_replayed_records << ' '
      << f.torn_tail_truncations << ' ' << f.fenced_rejections << ' '
      << f.prepared_migrations << ' ' << f.committed_migrations << ' '
      << f.recovery_windows << '\n';
  return out.str();
}

TEST(Determinism, LiveReplayBitIdenticalAcrossRunsPerSeed) {
  for (std::uint64_t seed : {1, 2, 3}) {
    wl::TraceRwConfig cfg;
    cfg.ops = 20'000;
    cfg.projects = 4;
    cfg.modules_per_project = 3;
    cfg.sources_per_module = 8;
    cfg.headers_shared = 40;
    cfg.seed = seed;
    const wl::Trace trace = wl::make_trace_rw(cfg);

    fs::LiveReplayOptions opt;
    opt.epoch_ops = 4'000;
    opt.faults.seed = seed * 1000 + 7;
    opt.faults.crash_prob = 0.15;
    opt.faults.crash_recovery = sim::millis(300);
    opt.faults.rpc_loss_prob = 0.003;

    fs::OrigamiFs::Options fopt;
    fopt.shards = 4;
    fs::OrigamiFs fs_a(fopt);
    fs::OrigamiFs fs_b(fopt);
    const auto ra = fs::replay_on_live(trace, fs_a, opt);
    const auto rb = fs::replay_on_live(trace, fs_b, opt);
    EXPECT_EQ(live_stats_fingerprint(ra), live_stats_fingerprint(rb))
        << "seed " << seed;
    // The fault layer really fired (this is not vacuous determinism).
    EXPECT_GT(ra.faults.crashes + ra.faults.rpcs_lost, 0u) << "seed " << seed;
  }
}

TEST(Determinism, LiveReplayBitIdenticalAcrossShardThreadCounts) {
  // The acceptance bar for the concurrent serving plane: the full stats
  // fingerprint (counters, latency histogram, per-shard busy clocks) is
  // byte-identical at --shard-threads 1/2/8, on 3 seeds, both clean and
  // with the fault plan armed.
  for (std::uint64_t seed : {1, 2, 3}) {
    wl::TraceRwConfig cfg;
    cfg.ops = 20'000;
    cfg.projects = 4;
    cfg.modules_per_project = 3;
    cfg.sources_per_module = 8;
    cfg.headers_shared = 40;
    cfg.seed = seed;
    const wl::Trace trace = wl::make_trace_rw(cfg);

    for (const bool faulted : {false, true}) {
      fs::LiveReplayOptions opt;
      opt.epoch_ops = 4'000;
      if (faulted) {
        opt.faults.seed = seed * 1000 + 7;
        opt.faults.crash_prob = 0.15;
        opt.faults.crash_recovery = sim::millis(300);
        opt.faults.straggler_prob = 0.2;
        opt.faults.rpc_loss_prob = 0.003;
        opt.recovery.commit_mode = recovery::CommitMode::kAsync;
        opt.recovery.commit_window = sim::millis(1);
        opt.recovery.commit_batch = 32;
        opt.recovery.fencing = true;
      }

      std::string baseline;
      for (const std::uint32_t threads : {1u, 2u, 8u}) {
        fs::OrigamiFs::Options fopt;
        fopt.shards = 4;
        fs::OrigamiFs fsys(fopt);
        fs::LiveReplayOptions run = opt;
        run.shard_threads = threads;
        const auto stats = fs::replay_on_live(trace, fsys, run);
        const std::string fp = live_stats_fingerprint(stats);
        if (baseline.empty()) {
          baseline = fp;
          EXPECT_GT(stats.executed, 0u);
          EXPECT_GT(stats.latency.count(), 0u);
        } else {
          EXPECT_EQ(fp, baseline) << "seed " << seed << " threads " << threads
                                  << (faulted ? " faulted" : " clean");
        }
      }
    }
  }
}

TEST(Determinism, ArrivalPoliciesBitIdenticalAcrossShardThreadCounts) {
  // The arrival plane must not break live-mode determinism: every new
  // open-loop process (trace replay, bursty, tenant) yields a byte-identical
  // stats fingerprint at --shard-threads 1/2/8, faults armed. This suite
  // runs under TSan in CI, so data races in the issue path surface here.
  wl::TraceFalconConfig cfg;
  cfg.ops = 6'000;
  const wl::Trace trace = wl::make_trace_falcon(cfg);

  for (const char* arrival :
       {"trace:speed=2", "bursty:rate=400000,seed=3",
        "tenant:tenants=4,rate=50000,burst=8"}) {
    fs::LiveReplayOptions opt;
    opt.epoch_ops = 1'500;
    opt.arrival = arrival;
    opt.faults.seed = 77;
    opt.faults.crash_prob = 0.1;
    opt.faults.crash_recovery = sim::millis(300);
    opt.faults.rpc_loss_prob = 0.003;

    std::string baseline;
    for (const std::uint32_t threads : {1u, 2u, 8u}) {
      fs::OrigamiFs::Options fopt;
      fopt.shards = 4;
      fs::OrigamiFs fsys(fopt);
      fs::LiveReplayOptions run = opt;
      run.shard_threads = threads;
      const auto stats = fs::replay_on_live(trace, fsys, run);
      const std::string fp = live_stats_fingerprint(stats);
      if (baseline.empty()) {
        baseline = fp;
        EXPECT_GT(stats.executed, 0u) << arrival;
      } else {
        EXPECT_EQ(fp, baseline) << arrival << " threads " << threads;
      }
    }
  }
}

TEST(Determinism, LivePolicyMigrationsBitIdenticalAcrossShardThreadCounts) {
  // A live policy migrates subtrees from the epoch hook while the shard
  // workers serve: clean mode keeps them streaming through the hook, and
  // faulted mode drains them first because the policy narrates into their
  // journals. Either way the final ownership map and every fault-plane
  // counter are byte-identical at --shard-threads 1/2/8. This suite runs
  // under TSan in CI, so a race between a migration and a worker surfaces
  // here.
  constexpr std::uint64_t kSeed = 3;
  const wl::Trace trace = testing::live_policy_trace(kSeed);
  policy::PolicyContext ctx;
  ctx.benefit_model = testing::read_share_model();
  for (const char* spec : {"hash-repart", "origami:min-benefit=0"}) {
    for (const bool faulted : {false, true}) {
      fs::LiveReplayOptions opt = testing::live_policy_options(kSeed, faulted);
      if (faulted) {
        opt.recovery.commit_mode = recovery::CommitMode::kAsync;
        opt.recovery.commit_window = sim::millis(1);
        opt.recovery.commit_batch = 32;
      }
      std::string baseline;
      for (const std::uint32_t threads : {1u, 2u, 8u}) {
        const std::string run_name = std::string(spec) +
                                     (faulted ? " faulted" : " clean") +
                                     " threads " + std::to_string(threads);
        auto made = policy::Registry::builtin().make_live(spec, ctx);
        ASSERT_TRUE(made.is_ok()) << made.status().to_string();
        const std::unique_ptr<policy::LivePolicy> live =
            std::move(made).value();
        fs::OrigamiFs::Options fopt;
        fopt.shards = testing::kLivePolicyShards;
        fs::OrigamiFs fsys(fopt);
        fs::LiveReplayOptions run = opt;
        run.shard_threads = threads;
        run.on_epoch = [&live](fs::OrigamiFs& f, fs::LiveFaultContext& c) {
          return live->on_epoch(f, c);
        };
        const auto stats = fs::replay_on_live(trace, fsys, run);
        const std::string fp = testing::live_policy_fingerprint(stats, fsys);
        if (baseline.empty()) {
          baseline = fp;
          EXPECT_GT(stats.migrations, 0u) << run_name;
          if (faulted) {
            EXPECT_GT(stats.faults.crashes, 0u) << run_name;
          }
        } else {
          EXPECT_EQ(fp, baseline) << run_name;
        }
      }
    }
  }
}

}  // namespace
}  // namespace origami
