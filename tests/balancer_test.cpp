// Tests for subtree aggregation, Table-1 feature extraction, the rebalance
// trigger, and the online balancing policies (Origami / ML-tree).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <limits>
#include <map>
#include <span>

#include "origami/cluster/replay.hpp"
#include "origami/core/balancers.hpp"
#include "origami/core/features.hpp"
#include "origami/core/meta_opt.hpp"
#include "origami/core/subtree.hpp"
#include "origami/ml/gbdt.hpp"
#include "origami/wl/generators.hpp"

namespace origami::core {
namespace {

using cluster::DirEpochStats;
using cluster::EpochSnapshot;
using fsns::NodeId;

struct Fixture {
  fsns::DirTree tree;
  NodeId a{}, b{}, a1{}, a2{};
  std::vector<NodeId> a1_files, a2_files, b_files;

  Fixture() {
    a = tree.add_dir(fsns::kRootNode, "a");
    b = tree.add_dir(fsns::kRootNode, "b");
    a1 = tree.add_dir(a, "a1");
    a2 = tree.add_dir(a, "a2");
    for (int i = 0; i < 5; ++i) {
      a1_files.push_back(tree.add_file(a1, "f" + std::to_string(i)));
      a2_files.push_back(tree.add_file(a2, "g" + std::to_string(i)));
      b_files.push_back(tree.add_file(b, "h" + std::to_string(i)));
    }
    tree.finalize();
  }

  [[nodiscard]] std::vector<DirEpochStats> stats() const {
    std::vector<DirEpochStats> s(tree.size());
    s[a1] = {100, 20, 3, 0, sim::millis(120)};
    s[a2] = {10, 5, 0, 1, sim::millis(15)};
    s[a] = {4, 0, 1, 0, sim::millis(4)};
    s[b] = {50, 50, 0, 0, sim::millis(100)};
    return s;
  }
};

// ------------------------------------------------------------ SubtreeView --

TEST(SubtreeView, AggregatesBottomUp) {
  Fixture fx;
  mds::PartitionMap map(fx.tree, 2);
  const SubtreeView view = SubtreeView::build(fx.tree, fx.stats(), map);
  EXPECT_EQ(view.reads(fx.a1), 100u);
  EXPECT_EQ(view.writes(fx.a1), 20u);
  EXPECT_EQ(view.reads(fx.a), 114u);  // a + a1 + a2
  EXPECT_EQ(view.writes(fx.a), 25u);
  EXPECT_EQ(view.rct(fx.a), sim::millis(139));
  EXPECT_EQ(view.ops(fx.b), 100u);
  EXPECT_EQ(view.total_ops(), 239u);
  EXPECT_EQ(view.lsdir_self(fx.a), 1u);
  EXPECT_EQ(view.nsm_self(fx.a2), 1u);
}

TEST(SubtreeView, StaticShapeFromTree) {
  Fixture fx;
  mds::PartitionMap map(fx.tree, 2);
  const SubtreeView view = SubtreeView::build(fx.tree, fx.stats(), map);
  EXPECT_EQ(view.sub_files(fx.a1), 5u);
  EXPECT_EQ(view.sub_files(fx.a), 10u);
  EXPECT_EQ(view.sub_dirs(fx.a), 2u);
  EXPECT_EQ(view.sub_dirs(fsns::kRootNode), 4u);  // a, b, a1, a2
  EXPECT_EQ(view.sub_files(fsns::kRootNode), 15u);
}

TEST(SubtreeView, UniformOwnerTracksPartition) {
  Fixture fx;
  mds::PartitionMap map(fx.tree, 2);
  map.set_dir_owner(fx.a1, 1);
  const SubtreeView view = SubtreeView::build(fx.tree, fx.stats(), map);
  EXPECT_EQ(view.uniform_owner(fx.a1), 1u);
  EXPECT_EQ(view.uniform_owner(fx.a2), 0u);
  EXPECT_EQ(view.uniform_owner(fx.a), cost::kInvalidMds);  // mixed
  EXPECT_EQ(view.uniform_owner(fx.b), 0u);
}

TEST(SubtreeView, CandidatesRankedByRct) {
  Fixture fx;
  mds::PartitionMap map(fx.tree, 2);
  const SubtreeView view = SubtreeView::build(fx.tree, fx.stats(), map);
  const auto cands = view.candidates(10, 1);
  ASSERT_GE(cands.size(), 3u);
  EXPECT_EQ(cands[0], fx.a);   // 139ms subtree
  EXPECT_EQ(cands[1], fx.a1);  // 120ms
  EXPECT_EQ(cands[2], fx.b);   // 100ms
  // min_ops filter.
  const auto heavy = view.candidates(10, 120);
  for (NodeId c : heavy) EXPECT_GE(view.ops(c), 120u);
}

TEST(SubtreeView, ApplyMigrationUpdatesUniformity) {
  Fixture fx;
  mds::PartitionMap map(fx.tree, 2);
  SubtreeView view = SubtreeView::build(fx.tree, fx.stats(), map);
  view.apply_migration(fx.tree, fx.a1, 1);
  EXPECT_EQ(view.uniform_owner(fx.a1), 1u);
  EXPECT_EQ(view.uniform_owner(fx.a), cost::kInvalidMds);
  EXPECT_EQ(view.uniform_owner(fsns::kRootNode), cost::kInvalidMds);
  EXPECT_EQ(view.uniform_owner(fx.b), 0u);  // untouched sibling
}

// ------------------------------------------------------- FeatureExtractor --

TEST(Features, SchemaMatchesTable1) {
  const auto names = feature_name_vector();
  ASSERT_EQ(names.size(), kFeatureCount);
  EXPECT_EQ(names[0], "depth");
  EXPECT_EQ(names[1], "sub_files");
  EXPECT_EQ(names[3], "reads");
  EXPECT_EQ(names[6], "dir_file_ratio");
}

TEST(Features, NormalisationRanges) {
  Fixture fx;
  mds::PartitionMap map(fx.tree, 2);
  const SubtreeView view = SubtreeView::build(fx.tree, fx.stats(), map);
  const FeatureExtractor extractor(fx.tree, view);
  for (NodeId d : fx.tree.directories()) {
    const auto f = extractor.extract(d);
    // Structure features normalised by max -> [0, 1].
    EXPECT_GE(f[0], 0.f);
    EXPECT_LE(f[0], 1.f);
    EXPECT_LE(f[1], 1.f);
    EXPECT_LE(f[2], 1.f);
    // History normalised by total access -> [0, 1].
    EXPECT_LE(f[3], 1.f);
    EXPECT_LE(f[4], 1.f);
    // rw ratio in [0, 1].
    EXPECT_GE(f[5], 0.f);
    EXPECT_LE(f[5], 1.f);
  }
}

TEST(Features, ValuesReflectStats) {
  Fixture fx;
  mds::PartitionMap map(fx.tree, 2);
  const SubtreeView view = SubtreeView::build(fx.tree, fx.stats(), map);
  const FeatureExtractor extractor(fx.tree, view);
  const auto fa1 = extractor.extract(fx.a1);
  const auto fb = extractor.extract(fx.b);
  EXPECT_GT(fa1[3], fb[3]);              // a1 has more subtree reads
  EXPECT_GT(fb[5], fa1[5]);              // b is more write-heavy (50/100)
  EXPECT_FLOAT_EQ(fa1[0], 2.0f / 2.0f);  // depth 2, max depth 2
}

// ---------------------------------------------------------------- trigger --

EpochSnapshot snapshot_with_busy(std::vector<sim::SimTime> busy,
                                 std::uint64_t ops_each = 100) {
  EpochSnapshot snap;
  for (sim::SimTime b : busy) {
    mds::MdsEpochCounters c;
    c.busy = b;
    c.ops_executed = ops_each;
    snap.mds.push_back(c);
  }
  return snap;
}

TEST(Trigger, FiresOnlyAboveThreshold) {
  RebalanceTrigger trigger{0.2};
  EXPECT_FALSE(trigger.should_rebalance(
      snapshot_with_busy({1000, 1000, 1000, 1000, 1000})));
  EXPECT_TRUE(trigger.should_rebalance(
      snapshot_with_busy({5000, 100, 100, 100, 100})));
}

TEST(Trigger, SilentWhenNoTraffic) {
  RebalanceTrigger trigger{0.0};
  EXPECT_FALSE(
      trigger.should_rebalance(snapshot_with_busy({5000, 0, 0}, /*ops=*/0)));
}

// --------------------------------------------------------------- policies --

// Trains a GBDT that predicts high benefit for subtrees with many reads
// (feature 3) — a stand-in for a real label-gen model.
std::shared_ptr<ml::GbdtModel> reads_proxy_model() {
  ml::Dataset data(feature_name_vector());
  common::Xoshiro256 rng(31);
  std::vector<float> row(kFeatureCount);
  for (int i = 0; i < 2000; ++i) {
    for (auto& x : row) x = static_cast<float>(rng.uniform_double());
    data.add_row(row, row[3]);  // benefit == read share
  }
  ml::GbdtParams params;
  params.rounds = 40;
  return std::make_shared<ml::GbdtModel>(ml::GbdtModel::train(data, params));
}

EpochSnapshot make_snapshot(const std::vector<DirEpochStats>& stats,
                            std::vector<sim::SimTime> rct_bins) {
  EpochSnapshot snap;
  snap.dir_stats = &stats;
  for (std::size_t i = 0; i < rct_bins.size(); ++i) {
    mds::MdsEpochCounters c;
    c.rct_charged = rct_bins[i];
    c.busy = rct_bins[i];
    // Executed-op counts proportional to the bins (1 op per ms of RCT),
    // plus one so the trigger sees traffic even on balanced bins.
    c.ops_executed =
        static_cast<std::uint64_t>(rct_bins[i] / sim::millis(1)) + 1;
    snap.mds.push_back(c);
  }
  return snap;
}

TEST(OrigamiBalancer, MovesPredictedBestSubtreeToColdMds) {
  Fixture fx;
  mds::PartitionMap map(fx.tree, 2);
  auto model = reads_proxy_model();
  OrigamiBalancer::Params params;
  params.min_subtree_ops = 1;
  params.min_predicted_benefit = 0.0;
  params.max_migrations_per_epoch = 1;
  OrigamiBalancer balancer(model, cost::CostModel{}, params,
                           RebalanceTrigger{0.0});

  const auto stats = fx.stats();
  const auto snap = make_snapshot(stats, {sim::millis(239), 0});
  const auto decisions = balancer.rebalance(snap, fx.tree, map);
  ASSERT_EQ(decisions.size(), 1u);
  // The read-share proxy ranks /a highest (subtree reads 114/239).
  EXPECT_EQ(decisions[0].subtree, fx.a);
  EXPECT_EQ(decisions[0].from, 0u);
  EXPECT_EQ(decisions[0].to, 1u);
}

TEST(OrigamiBalancer, RespectsTriggerAndMissingModel) {
  Fixture fx;
  mds::PartitionMap map(fx.tree, 2);
  const auto stats = fx.stats();
  // Balanced bins: trigger must hold it back.
  auto model = reads_proxy_model();
  OrigamiBalancer::Params params;
  params.min_subtree_ops = 1;
  OrigamiBalancer balancer(model, cost::CostModel{}, params,
                           RebalanceTrigger{0.5});
  const auto snap = make_snapshot(stats, {sim::millis(100), sim::millis(100)});
  EXPECT_TRUE(balancer.rebalance(snap, fx.tree, map).empty());

  OrigamiBalancer no_model(std::shared_ptr<const ml::GbdtModel>{},
                           cost::CostModel{}, params, RebalanceTrigger{0.0});
  const auto hot = make_snapshot(stats, {sim::millis(239), 0});
  EXPECT_TRUE(no_model.rebalance(hot, fx.tree, map).empty());
}

/// Forwards every call to `inner`, keeps the decisions it returns, and runs
/// `after` with each rebalance call's inputs once the call is done.
class Recording final : public cluster::Balancer {
 public:
  using Hook = std::function<void(const EpochSnapshot&, const fsns::DirTree&,
                                  const mds::PartitionMap&,
                                  std::size_t decided)>;
  Recording(cluster::Balancer& inner, Hook after)
      : inner_(inner), after_(std::move(after)) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void prepare(const fsns::DirTree& tree, mds::PartitionMap& map) override {
    inner_.prepare(tree, map);
  }
  std::vector<cluster::MigrationDecision> rebalance(
      const EpochSnapshot& snapshot, const fsns::DirTree& tree,
      const mds::PartitionMap& map) override {
    auto ds = inner_.rebalance(snapshot, tree, map);
    if (after_) after_(snapshot, tree, map, ds.size());
    decisions.insert(decisions.end(), ds.begin(), ds.end());
    return ds;
  }

  std::vector<cluster::MigrationDecision> decisions;

 private:
  cluster::Balancer& inner_;
  Hook after_;
};

TEST(OrigamiBalancer, PredictsEachCandidateOncePerCall) {
  wl::TraceRwConfig cfg;
  cfg.ops = 20'000;
  cfg.seed = 4;
  const wl::Trace trace = wl::make_trace_rw(cfg);
  cluster::ReplayOptions opt;
  opt.mds_count = 5;
  opt.clients = 8;
  opt.epoch_length = sim::millis(100);
  opt.warmup_epochs = 1;

  // A pure heuristic (activity share) and a counter around it that keeps
  // the feature rows priced during the current call.
  const BenefitPredictor heuristic = [](std::span<const float> f) {
    return static_cast<double>(f[3]) + static_cast<double>(f[4]);
  };
  using Row = std::array<float, kFeatureCount>;
  std::map<Row, int> priced;
  const BenefitPredictor counting = [&](std::span<const float> f) {
    Row row{};
    std::copy(f.begin(), f.end(), row.begin());
    ++priced[row];
    return heuristic(f);
  };
  OrigamiBalancer::Params params;
  params.min_subtree_ops = 8;
  params.min_predicted_benefit = 0.0;
  OrigamiBalancer counted(counting, cost::CostModel{}, params,
                          RebalanceTrigger{0.0});
  OrigamiBalancer plain(heuristic, cost::CostModel{}, params,
                        RebalanceTrigger{0.0});

  // After each call, every row may have been priced at most as often as
  // the call's candidate pool holds directories with that row.
  std::size_t repricing_calls = 0;
  std::size_t multi_move_calls = 0;
  Recording probe(counted, [&](const EpochSnapshot& snap,
                               const fsns::DirTree& tree,
                               const mds::PartitionMap& map,
                               std::size_t decided) {
    const SubtreeView view = SubtreeView::build(tree, *snap.dir_stats, map);
    const FeatureExtractor fx(tree, view);
    std::map<Row, int> pool;
    for (NodeId d : view.candidates(std::numeric_limits<std::size_t>::max(),
                                    params.min_subtree_ops)) {
      ++pool[fx.extract(d)];
    }
    for (const auto& [row, n] : priced) {
      const auto it = pool.find(row);
      if (it == pool.end() || n > it->second) {
        ++repricing_calls;
        break;
      }
    }
    if (decided >= 2) ++multi_move_calls;
    priced.clear();
  });
  Recording reference(plain, nullptr);
  (void)cluster::replay_trace(trace, opt, probe);
  (void)cluster::replay_trace(trace, opt, reference);

  // Calls with two moves made at least two attempts, so a second attempt
  // had candidates left to re-price.
  ASSERT_GT(multi_move_calls, 0u);
  EXPECT_EQ(repricing_calls, 0u);
  ASSERT_EQ(probe.decisions.size(), reference.decisions.size());
  for (std::size_t i = 0; i < probe.decisions.size(); ++i) {
    const cluster::MigrationDecision& a = probe.decisions[i];
    const cluster::MigrationDecision& b = reference.decisions[i];
    EXPECT_EQ(a.subtree, b.subtree) << i;
    EXPECT_EQ(a.from, b.from) << i;
    EXPECT_EQ(a.to, b.to) << i;
    EXPECT_EQ(a.predicted_benefit, b.predicted_benefit) << i;
  }
}

TEST(MlTreeBalancer, EqualisesPredictedLoad) {
  Fixture fx;
  mds::PartitionMap map(fx.tree, 2);
  auto model = reads_proxy_model();
  MlTreeBalancer::Params params;
  params.min_subtree_ops = 1;
  MlTreeBalancer balancer(model, params, RebalanceTrigger{0.0});

  const auto stats = fx.stats();
  const auto snap = make_snapshot(stats, {sim::millis(239), 0});
  const auto decisions = balancer.rebalance(snap, fx.tree, map);
  ASSERT_FALSE(decisions.empty());
  for (const auto& d : decisions) {
    EXPECT_EQ(d.from, 0u);
    EXPECT_EQ(d.to, 1u);
  }
}

TEST(MlTreeBalancer, IdleWhenBalanced) {
  Fixture fx;
  mds::PartitionMap map(fx.tree, 2);
  map.migrate(fx.a, 0, 1);
  auto model = reads_proxy_model();
  MlTreeBalancer::Params params;
  params.min_subtree_ops = 1;
  params.target_spread = 0.5;
  MlTreeBalancer balancer(model, params, RebalanceTrigger{0.0});
  const auto stats = fx.stats();
  const auto snap = make_snapshot(stats, {sim::millis(100), sim::millis(100)});
  EXPECT_TRUE(balancer.rebalance(snap, fx.tree, map).empty());
}

TEST(StaticBalancer, NamesAndPartitioning) {
  Fixture fx;
  cluster::StaticBalancer single(cluster::StaticBalancer::Kind::kSingle);
  cluster::StaticBalancer coarse(cluster::StaticBalancer::Kind::kCoarseHash);
  cluster::StaticBalancer fine(cluster::StaticBalancer::Kind::kFineHash);
  EXPECT_EQ(single.name(), "single");
  EXPECT_EQ(coarse.name(), "c-hash");
  EXPECT_EQ(fine.name(), "f-hash");
  mds::PartitionMap map(fx.tree, 4);
  fine.prepare(fx.tree, map);
  std::uint64_t total = 0;
  for (auto c : map.inode_counts()) total += c;
  EXPECT_EQ(total, fx.tree.size());
}

}  // namespace
}  // namespace origami::core
