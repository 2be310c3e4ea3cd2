// Tests for the live OrigamiFS rebalancing loop (Data Collector → feature
// extraction → model → Migrator, all against the real service), driven
// through the registry's live origami form.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "origami/fs/live_replay.hpp"
#include "origami/policy/registry.hpp"
#include "origami/wl/generators.hpp"
#include "origami/wl/trace.hpp"

#include "support/live_policy_golden_configs.hpp"

namespace origami {
namespace {

/// The registry's live origami form under `spec`, deciding with `model`
/// (by default one that predicts benefit == subtree read share, a stand-in
/// for the trained benefit regressor).
std::unique_ptr<policy::LivePolicy> live_origami(
    const std::string& spec,
    std::shared_ptr<const ml::GbdtModel> model = testing::read_share_model()) {
  policy::PolicyContext ctx;
  ctx.benefit_model = std::move(model);
  auto made = policy::Registry::builtin().make_live(spec, ctx);
  EXPECT_TRUE(made.is_ok()) << made.status().to_string();
  return std::move(made).value();
}

/// Every shard healthy; records the two-phase narration.
class HealthyContext final : public fs::LiveFaultContext {
 public:
  struct Phase {
    fs::Ino subtree;
    std::uint32_t from;
    std::uint32_t to;
  };

  [[nodiscard]] bool shard_down(std::uint32_t) const override {
    return false;
  }
  void record_prepare(fs::Ino subtree, std::uint32_t from,
                      std::uint32_t to) override {
    prepares.push_back({subtree, from, to});
  }
  void record_commit(fs::Ino subtree, std::uint32_t from,
                     std::uint32_t to) override {
    commits.push_back({subtree, from, to});
  }
  void record_abort(fs::Ino subtree, std::uint32_t from,
                    std::uint32_t to) override {
    aborts.push_back({subtree, from, to});
  }

  std::vector<Phase> prepares;
  std::vector<Phase> commits;
  std::vector<Phase> aborts;
};

fs::OrigamiFs make_fs_with_hotspot() {
  fs::OrigamiFs::Options opt;
  opt.shards = 3;
  fs::OrigamiFs fsys(opt);
  for (const char* d : {"/hot", "/hot/sub", "/cold", "/cold/sub"}) {
    EXPECT_TRUE(fsys.mkdir(d).is_ok());
  }
  for (int i = 0; i < 40; ++i) {
    fsys.create("/hot/sub/f" + std::to_string(i));
    fsys.create("/cold/sub/f" + std::to_string(i));
  }
  // Hammer the hot subtree.
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 40; ++i) {
      fsys.stat("/hot/sub/f" + std::to_string(i));
    }
  }
  // Touch the cold side a little.
  for (int i = 0; i < 10; ++i) fsys.stat("/cold/sub/f" + std::to_string(i));
  return fsys;
}

TEST(CollectActivity, ReportsShapeAndCounters) {
  fs::OrigamiFs fsys = make_fs_with_hotspot();
  auto activity = fsys.collect_activity(/*reset=*/false);
  // Root + 4 dirs.
  EXPECT_EQ(activity.size(), 5u);
  const fs::OrigamiFs::DirActivity* hot_sub = nullptr;
  for (const auto& a : activity) {
    if (a.depth == 2 && a.sub_files == 40 && a.reads > 700) hot_sub = &a;
  }
  ASSERT_NE(hot_sub, nullptr);
  EXPECT_EQ(hot_sub->sub_dirs, 0u);
  EXPECT_EQ(hot_sub->shard, 0u);
}

TEST(CollectActivity, ResetStartsNewEpoch) {
  fs::OrigamiFs fsys = make_fs_with_hotspot();
  (void)fsys.collect_activity(/*reset=*/true);
  const auto after = fsys.collect_activity(/*reset=*/false);
  for (const auto& a : after) {
    EXPECT_EQ(a.reads, 0u);
    EXPECT_EQ(a.writes, 0u);
  }
}

TEST(LiveBalancer, MovesHotSubtreeOffShardZero) {
  fs::OrigamiFs fsys = make_fs_with_hotspot();
  HealthyContext ctx;
  const std::uint64_t moved =
      live_origami("origami:min-ops=8,min-benefit=0")->on_epoch(fsys, ctx);

  ASSERT_GT(moved, 0u);
  ASSERT_EQ(ctx.commits.size(), moved);
  EXPECT_EQ(ctx.prepares.size(), moved);
  EXPECT_TRUE(ctx.aborts.empty());
  EXPECT_EQ(ctx.commits[0].from, 0u);
  EXPECT_NE(ctx.commits[0].to, 0u);
  EXPECT_EQ(fsys.dir_shard(ctx.commits[0].subtree), ctx.commits[0].to);
  // The hot subtree left shard 0, and the namespace survived intact.
  EXPECT_NE(fsys.owner_of("/hot/sub").value(), 0u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_TRUE(fsys.stat("/hot/sub/f" + std::to_string(i)).is_ok());
  }
  // Some fragment really lives elsewhere now.
  std::uint64_t off_zero = 0;
  for (std::size_t s = 1; s < fsys.shard_stats().size(); ++s) {
    off_zero += fsys.shard_stats()[s].entries;
  }
  EXPECT_GT(off_zero, 0u);
}

TEST(LiveBalancer, TriggerHoldsWhenBalanced) {
  fs::OrigamiFs fsys = make_fs_with_hotspot();
  HealthyContext first;
  (void)live_origami("origami:min-ops=8,min-benefit=0")->on_epoch(fsys, first);

  // Next epoch: generate *balanced* traffic and expect no decisions.
  const auto hot_owner = fsys.owner_of("/hot/sub").value();
  const auto cold_owner = fsys.owner_of("/cold/sub").value();
  ASSERT_NE(hot_owner, cold_owner);
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 40; ++i) {
      fsys.stat("/hot/sub/f" + std::to_string(i));
      fsys.stat("/cold/sub/f" + std::to_string(i));
    }
  }
  // Two shards evenly loaded out of three: IF = 0.25 > trigger 0.05, so
  // set a trigger that tolerates it.
  HealthyContext second;
  EXPECT_EQ(live_origami("origami:min-ops=8,min-benefit=0,trigger=0.6")
                ->on_epoch(fsys, second),
            0u);
  EXPECT_TRUE(second.prepares.empty());
}

TEST(LiveBalancer, NullModelIsNoop) {
  fs::OrigamiFs fsys = make_fs_with_hotspot();
  HealthyContext ctx;
  EXPECT_EQ(live_origami("origami", nullptr)->on_epoch(fsys, ctx), 0u);
  EXPECT_TRUE(ctx.prepares.empty());
  // Without a model the epoch never starts: the Data Collector keeps its
  // counters for whoever drains it next.
  std::uint64_t reads = 0;
  for (const auto& a : fsys.collect_activity(/*reset=*/false)) reads += a.reads;
  EXPECT_GT(reads, 0u);
}

TEST(LiveReplay, ExecutesTraceWithoutFailures) {
  wl::TraceRwConfig cfg;
  cfg.ops = 20'000;
  cfg.projects = 4;
  cfg.modules_per_project = 3;
  cfg.sources_per_module = 8;
  cfg.headers_shared = 40;
  const wl::Trace trace = wl::make_trace_rw(cfg);

  fs::OrigamiFs::Options fopt;
  fopt.shards = 3;
  fs::OrigamiFs fsys(fopt);
  fs::LiveReplayOptions opt;
  opt.epoch_ops = 5'000;
  const auto stats = fs::replay_on_live(trace, fsys, opt);
  EXPECT_EQ(stats.executed, trace.ops.size());
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.migrations, 0u);  // no balancer wired in
  EXPECT_DOUBLE_EQ(stats.shard_imbalance, 1.0);  // everything on shard 0
}

TEST(LiveReplay, BalancerHookReducesImbalance) {
  wl::TraceRwConfig cfg;
  cfg.ops = 60'000;
  cfg.projects = 6;
  cfg.modules_per_project = 4;
  cfg.sources_per_module = 10;
  cfg.headers_shared = 60;
  const wl::Trace trace = wl::make_trace_rw(cfg);

  fs::OrigamiFs::Options fopt;
  fopt.shards = 3;
  fs::OrigamiFs fsys(fopt);

  const auto live = live_origami("origami:min-ops=16,min-benefit=0");
  fs::LiveReplayOptions opt;
  opt.epoch_ops = 10'000;
  opt.on_epoch = [&live](fs::OrigamiFs& f, fs::LiveFaultContext& c) {
    return live->on_epoch(f, c);
  };
  const auto stats = fs::replay_on_live(trace, fsys, opt);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GT(stats.epochs, 2u);
  EXPECT_GT(stats.migrations, 0u);
  EXPECT_LT(stats.shard_imbalance, 0.9);
}

/// Every counter a live replay leaves behind: per-shard dirent reads,
/// writes and entries, then each directory's Data-Collector row in inode
/// order (ino:parent:depth:shard:files:dirs:reads:writes).
std::string live_counters(const fs::LiveReplayStats& stats,
                          fs::OrigamiFs& fsys) {
  std::ostringstream out;
  out << stats.executed << ' ' << stats.failed << ' ' << stats.migrations
      << " |";
  for (const fs::ShardStats& st : fsys.shard_stats()) {
    out << ' ' << st.lookups << '/' << st.mutations << '/' << st.entries;
  }
  out << " |";
  auto activity = fsys.collect_activity(/*reset=*/false);
  std::sort(activity.begin(), activity.end(),
            [](const auto& a, const auto& b) { return a.ino < b.ino; });
  for (const auto& a : activity) {
    out << ' ' << a.ino << ':' << a.parent << ':' << a.depth << ':'
        << a.shard << ':' << a.sub_files << ':' << a.sub_dirs << ':'
        << a.reads << ':' << a.writes;
  }
  return out.str();
}

TEST(LiveReplay, NamespaceSurprisesCountLikePathWalks) {
  // Ops a replayed namespace can throw at the issuer: a create aimed at a
  // directory node (a file then sits where the directory should be, so
  // every request below it fails mid-walk), unlinks aimed at directories
  // and at the root, and re-creates after unlink. The ino-addressed issuer
  // must count what resolving each full path from the root would have
  // counted; the expected strings are what the string-path issuer it
  // replaced produced, without and with ownership moving every 2 ops.
  std::istringstream text(
      "rmdir /d\n"
      "create /d\n"
      "stat /d/f\n"
      "mkdir /d/e/g\n"
      "readdir /d/e\n"
      "setattr /d/e/g\n"
      "create /d/e/h\n"
      "unlink /d\n"
      "stat /d/e/h\n"
      "mkdir /d/e/g\n"
      "readdir /d\n"
      "create /d/f\n"
      "unlink /d/e\n"
      "stat /d/e/h\n"
      "mkdir /d/e\n"
      "readdir /d/e/g\n"
      "unlink /\n"
      "create /\n"
      "stat /\n"
      "readdir /\n"
      "setattr /\n"
      "mkdir /z/y\n"
      "unlink /z\n"
      "create /z/y/w\n"
      "unlink /z\n"
      "stat /z/y/w\n"
      "rename /z/y/w /d/q\n"
      "stat /d/q\n"
      "create /d/e/g\n"
      "readdir /d/e/g\n");
  auto parsed = wl::parse_text_trace(text);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const wl::Trace& trace = parsed.value();

  const char* const expected[] = {
      "30 14 0 | 58/11/8 0/0/0 0/0/0 | 1:0:0:0:0:2:2:4 3:1:1:0:2:1:2:3 "
      "5:3:2:0:1:0:1:1 7:1:1:0:0:1:0:1 8:7:2:0:1:0:1:2",
      "30 14 15 | 15/3/0 37/8/4 6/0/4 | 1:0:0:2:0:2:0:0 3:1:1:1:2:1:0:0 "
      "5:3:2:1:1:0:0:0 7:1:1:2:0:1:0:0 8:7:2:2:1:0:0:0",
  };
  for (const std::uint64_t epoch_ops : {0, 2}) {
    fs::OrigamiFs::Options fopt;
    fopt.shards = 3;
    fs::OrigamiFs fsys(fopt);
    fs::LiveReplayOptions opt;
    opt.epoch_ops = epoch_ops;
    std::uint32_t turn = 0;
    opt.on_epoch = [&turn](fs::OrigamiFs& f, fs::LiveFaultContext&) {
      // Move every third directory one shard on, a different third each
      // epoch, so walks cross owners.
      std::uint64_t moves = 0;
      for (const auto& a : f.collect_activity(/*reset=*/true)) {
        if ((a.ino + turn) % 3 != 0) continue;
        if (f.reassign_dir(a.ino, (a.shard + 1) % 3).is_ok()) ++moves;
      }
      ++turn;
      return moves;
    };
    const auto stats = fs::replay_on_live(trace, fsys, opt);
    EXPECT_EQ(live_counters(stats, fsys), expected[epoch_ops == 0 ? 0 : 1])
        << "epoch_ops " << epoch_ops;
  }
}

}  // namespace
}  // namespace origami
