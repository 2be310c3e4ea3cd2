// Tests for the newer cross-cutting features: text trace import/export,
// GBDT feature sampling, service-time jitter, the EWMA-smoothed trigger
// and the epoch CSV exporter.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "origami/cluster/replay.hpp"
#include "origami/common/rng.hpp"
#include "origami/core/balancers.hpp"
#include "origami/ml/gbdt.hpp"
#include "origami/ml/metrics.hpp"
#include "origami/wl/generators.hpp"
#include "origami/wl/trace.hpp"

namespace origami {
namespace {

// -------------------------------------------------------------- text trace --

TEST(TextTrace, ParsesOpsAndBuildsNamespace) {
  std::istringstream in(R"(# a tiny session
mkdir /home
mkdir /home/alice
create /home/alice/notes.txt 4096
stat /home/alice/notes.txt
readdir /home/alice
rename /home/alice/notes.txt /home/archive/notes.txt
unlink /home/alice/notes.txt

stat /home
)");
  auto parsed = wl::parse_text_trace(in, "session");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const wl::Trace& t = parsed.value();
  EXPECT_EQ(t.name, "session");
  ASSERT_EQ(t.ops.size(), 8u);
  EXPECT_EQ(t.ops[0].type, fsns::OpType::kMkdir);
  EXPECT_EQ(t.ops[2].type, fsns::OpType::kCreate);
  EXPECT_EQ(t.ops[2].data_bytes, 4096u);
  EXPECT_EQ(t.ops[5].type, fsns::OpType::kRename);
  EXPECT_NE(t.ops[5].aux, fsns::kInvalidNode);
  EXPECT_TRUE(t.tree.is_dir(t.ops[5].aux));  // /home/archive materialised
  // The same path maps to the same node across lines.
  EXPECT_EQ(t.ops[2].target, t.ops[3].target);
  // Namespace: /, home, alice, archive + notes.txt.
  EXPECT_EQ(t.tree.dir_count(), 4u);
  EXPECT_EQ(t.tree.file_count(), 1u);
}

TEST(TextTrace, RejectsMalformedInput) {
  {
    std::istringstream in("frobnicate /x\n");
    EXPECT_FALSE(wl::parse_text_trace(in).is_ok());
  }
  {
    std::istringstream in("stat\n");
    EXPECT_FALSE(wl::parse_text_trace(in).is_ok());
  }
  {
    std::istringstream in("rename /a\n");
    EXPECT_FALSE(wl::parse_text_trace(in).is_ok());
  }
  {
    // Descending through a file.
    std::istringstream in("create /f\nstat /f/child\n");
    EXPECT_FALSE(wl::parse_text_trace(in).is_ok());
  }
}

TEST(TextTrace, RoundtripThroughTextFormat) {
  wl::TraceRwConfig cfg;
  cfg.ops = 2'000;
  cfg.projects = 3;
  cfg.modules_per_project = 2;
  cfg.sources_per_module = 5;
  cfg.headers_shared = 20;
  const wl::Trace original = wl::make_trace_rw(cfg);

  std::stringstream buf;
  ASSERT_TRUE(wl::write_text_trace(original, buf).is_ok());
  auto parsed = wl::parse_text_trace(buf, original.name);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const wl::Trace& t = parsed.value();
  ASSERT_EQ(t.ops.size(), original.ops.size());
  for (std::size_t i = 0; i < t.ops.size(); ++i) {
    EXPECT_EQ(t.ops[i].type, original.ops[i].type) << i;
    EXPECT_EQ(t.tree.full_path(t.ops[i].target),
              original.tree.full_path(original.ops[i].target))
        << i;
  }
  // The imported trace replays cleanly.
  cluster::ReplayOptions opt;
  opt.mds_count = 2;
  opt.clients = 8;
  opt.epoch_length = sim::millis(100);
  cluster::StaticBalancer b(cluster::StaticBalancer::Kind::kCoarseHash);
  const auto r = cluster::replay_trace(t, opt, b);
  EXPECT_EQ(r.completed_ops, t.ops.size());
}

// ------------------------------------------------------- feature sampling --

TEST(GbdtFeatureFraction, StillLearnsAndSpreadsSplits) {
  ml::Dataset data;
  common::Xoshiro256 rng(3);
  std::vector<float> row(6);
  for (int i = 0; i < 3000; ++i) {
    for (auto& x : row) x = static_cast<float>(rng.uniform_double());
    // Signal spread over two features.
    data.add_row(row, 2.f * row[0] + row[3]);
  }
  ml::GbdtParams params;
  params.rounds = 120;
  params.feature_fraction = 0.5;
  const auto model = ml::GbdtModel::train(data, params);
  const auto pred = model.predict_batch(data);
  EXPECT_GT(ml::r2(pred, data.labels()), 0.9);
  // Both informative features must have been used despite sampling.
  EXPECT_GT(model.feature_importance()[0], 0.0);
  EXPECT_GT(model.feature_importance()[3], 0.0);
}

// --------------------------------------------------------- service jitter --

TEST(ServiceJitter, ChangesTimingButStaysDeterministic) {
  wl::TraceRwConfig cfg;
  cfg.ops = 15'000;
  cfg.projects = 4;
  cfg.modules_per_project = 3;
  cfg.sources_per_module = 8;
  cfg.headers_shared = 40;
  const wl::Trace trace = wl::make_trace_rw(cfg);
  cluster::ReplayOptions exact;
  exact.mds_count = 3;
  exact.clients = 12;
  exact.epoch_length = sim::millis(200);
  cluster::ReplayOptions noisy = exact;
  noisy.cost_params.service_jitter_frac = 0.3;

  cluster::StaticBalancer b1(cluster::StaticBalancer::Kind::kCoarseHash);
  cluster::StaticBalancer b2(cluster::StaticBalancer::Kind::kCoarseHash);
  cluster::StaticBalancer b3(cluster::StaticBalancer::Kind::kCoarseHash);
  const auto r_exact = cluster::replay_trace(trace, exact, b1);
  const auto r_noisy1 = cluster::replay_trace(trace, noisy, b2);
  const auto r_noisy2 = cluster::replay_trace(trace, noisy, b3);

  EXPECT_NE(r_exact.makespan, r_noisy1.makespan);
  EXPECT_EQ(r_noisy1.makespan, r_noisy2.makespan);  // seeded determinism
  EXPECT_EQ(r_noisy1.completed_ops, trace.ops.size());
  // Throughput should be in the same ballpark (mean-preserving-ish noise).
  EXPECT_NEAR(r_noisy1.throughput_ops / r_exact.throughput_ops, 1.0, 0.25);
}

// ------------------------------------------------------------ EWMA trigger --

cluster::EpochSnapshot busy_snapshot(std::vector<sim::SimTime> busy) {
  cluster::EpochSnapshot snap;
  for (sim::SimTime b : busy) {
    mds::MdsEpochCounters c;
    c.busy = b;
    c.ops_executed = 10;
    snap.mds.push_back(c);
  }
  return snap;
}

TEST(SmoothedTrigger, PatienceDampsTransients) {
  core::RebalanceTrigger trigger;
  trigger.threshold = 0.3;
  trigger.patience = 2;
  const auto spike = busy_snapshot({1000, 10, 10});
  const auto calm = busy_snapshot({100, 100, 100});
  EXPECT_FALSE(trigger.should_rebalance(spike));  // 1st over-threshold epoch
  EXPECT_FALSE(trigger.should_rebalance(calm));   // reset
  EXPECT_FALSE(trigger.should_rebalance(spike));
  EXPECT_TRUE(trigger.should_rebalance(spike));   // 2 consecutive -> fire
}

TEST(SmoothedTrigger, EwmaFiltersOneOffSpike) {
  core::RebalanceTrigger trigger;
  trigger.threshold = 0.5;
  trigger.ewma_alpha = 0.2;
  const auto calm = busy_snapshot({100, 100, 100});
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(trigger.should_rebalance(calm));
  }
  // A single extreme epoch moves the EWMA only by alpha.
  const auto spike = busy_snapshot({1000, 1, 1});
  EXPECT_FALSE(trigger.should_rebalance(spike));
  // Sustained imbalance eventually fires.
  bool fired = false;
  for (int i = 0; i < 20 && !fired; ++i) {
    fired = trigger.should_rebalance(spike);
  }
  EXPECT_TRUE(fired);
}

// ------------------------------------------------------------- epoch CSV --

TEST(EpochCsv, WritesOneRowPerMdsPerEpoch) {
  wl::TraceRwConfig cfg;
  cfg.ops = 10'000;
  cfg.projects = 4;
  cfg.modules_per_project = 3;
  cfg.sources_per_module = 8;
  cfg.headers_shared = 40;
  const wl::Trace trace = wl::make_trace_rw(cfg);
  cluster::ReplayOptions opt;
  opt.mds_count = 3;
  opt.clients = 12;
  opt.epoch_length = sim::millis(100);
  cluster::StaticBalancer b(cluster::StaticBalancer::Kind::kCoarseHash);
  const auto r = cluster::replay_trace(trace, opt, b);

  const std::string path = ::testing::TempDir() + "/origami_epochs.csv";
  ASSERT_TRUE(cluster::write_epoch_csv(r, path).is_ok());
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 1 + r.epochs.size() * opt.mds_count);  // header + rows
  std::remove(path.c_str());
}

TEST(PerClassLatency, SumsToTotalAndOrdersSensibly) {
  const wl::Trace trace = wl::make_trace_rw({});
  cluster::ReplayOptions opt;
  opt.mds_count = 3;
  opt.clients = 12;
  opt.epoch_length = sim::millis(200);
  cluster::StaticBalancer b(cluster::StaticBalancer::Kind::kFineHash);
  const auto r = cluster::replay_trace(trace, opt, b);
  std::uint64_t by_class = 0;
  for (const auto& h : r.latency_by_class) by_class += h.count();
  EXPECT_EQ(by_class, r.latency.count());
  // Cross-MDS mutations are the slowest class under fine hashing (T_coor).
  const auto& nsm = r.latency_by_class[static_cast<int>(fsns::OpClass::kNsMutation)];
  const auto& other = r.latency_by_class[static_cast<int>(fsns::OpClass::kOther)];
  ASSERT_GT(nsm.count(), 0u);
  ASSERT_GT(other.count(), 0u);
  EXPECT_GT(nsm.mean(), other.mean());
}

}  // namespace
}  // namespace origami

namespace origami {
namespace {

TEST(OpenLoop, BelowCapacityIsStableAndDeterministic) {
  wl::TraceRwConfig cfg;
  cfg.ops = 30'000;
  cfg.projects = 4;
  cfg.modules_per_project = 3;
  cfg.sources_per_module = 8;
  cfg.headers_shared = 40;
  const wl::Trace trace = wl::make_trace_rw(cfg);

  cluster::ReplayOptions opt;
  opt.mds_count = 3;
  opt.arrival = "open:rate=5000";  // far below ~3x20k capacity
  opt.loop_trace = true;
  opt.time_limit = sim::seconds(2);
  opt.epoch_length = sim::millis(500);

  cluster::StaticBalancer b1(cluster::StaticBalancer::Kind::kCoarseHash);
  cluster::StaticBalancer b2(cluster::StaticBalancer::Kind::kCoarseHash);
  const auto a = cluster::replay_trace(trace, opt, b1);
  const auto b = cluster::replay_trace(trace, opt, b2);

  // ~rate x time arrivals completed; latency stays near the no-queue level.
  EXPECT_NEAR(static_cast<double>(a.completed_ops), 10'000.0, 1'500.0);
  EXPECT_LT(a.p99_latency_us, 2'000.0);
  EXPECT_EQ(a.makespan, b.makespan);  // deterministic
  EXPECT_EQ(a.completed_ops, b.completed_ops);
}

TEST(OpenLoop, OverloadBuildsQueues) {
  wl::TraceRwConfig cfg;
  cfg.ops = 30'000;
  cfg.projects = 4;
  cfg.modules_per_project = 3;
  cfg.sources_per_module = 8;
  cfg.headers_shared = 40;
  const wl::Trace trace = wl::make_trace_rw(cfg);

  cluster::ReplayOptions light;
  light.mds_count = 1;
  light.arrival = "open:rate=5000";
  light.loop_trace = true;
  light.time_limit = sim::seconds(2);
  cluster::ReplayOptions heavy = light;
  heavy.arrival = "open:rate=40000";  // ~2x a single MDS's capacity

  cluster::StaticBalancer b1(cluster::StaticBalancer::Kind::kSingle);
  cluster::StaticBalancer b2(cluster::StaticBalancer::Kind::kSingle);
  const auto r_light = cluster::replay_trace(trace, light, b1);
  const auto r_heavy = cluster::replay_trace(trace, heavy, b2);
  EXPECT_GT(r_heavy.p99_latency_us, 20.0 * r_light.p99_latency_us);
}

}  // namespace
}  // namespace origami

#include "origami/core/pipeline.hpp"

namespace origami {
namespace {

TEST(ModelPersistence, SaveLoadRoundtrip) {
  // Train tiny models from synthetic label rows.
  core::LabelGenResult labels{ml::Dataset(core::feature_name_vector()),
                              ml::Dataset(core::feature_name_vector()),
                              {}};
  common::Xoshiro256 rng(17);
  std::vector<float> row(core::kFeatureCount);
  for (int i = 0; i < 500; ++i) {
    for (auto& x : row) x = static_cast<float>(rng.uniform_double());
    labels.benefit_data.add_row(row, row[3]);
    labels.popularity_data.add_row(row, row[4]);
  }
  ml::GbdtParams params;
  params.rounds = 30;
  const auto models = core::train_models(labels, params);

  const std::string prefix = ::testing::TempDir() + "/origami_models";
  ASSERT_TRUE(core::save_models(models, prefix).is_ok());
  auto loaded = core::load_models(prefix);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  for (int i = 0; i < 20; ++i) {
    for (auto& x : row) x = static_cast<float>(rng.uniform_double());
    EXPECT_NEAR(loaded.value().benefit->predict(row),
                models.benefit->predict(row), 1e-12);
    EXPECT_NEAR(loaded.value().popularity->predict(row),
                models.popularity->predict(row), 1e-12);
  }
  std::remove((prefix + ".benefit.model").c_str());
  std::remove((prefix + ".popularity.model").c_str());
  EXPECT_FALSE(core::load_models(prefix).is_ok());
}

}  // namespace
}  // namespace origami
