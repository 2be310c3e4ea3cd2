// Tests for the policy registry (policy/registry.hpp): strict validation,
// the catalogue, construct-from-spec round trips, the golden byte-identity
// contract (registry-constructed legacy balancers replay bit-identically
// to historical direct constructions), the model-driven epoch policies'
// byte-identity goldens, the live forms
// (policy/live.hpp: byte-identity goldens, and every PREPARE naming the
// subtree's current owner), observer hook ordering, and the shared
// TriggerSmoother.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "origami/cluster/replay.hpp"
#include "origami/common/spec.hpp"
#include "origami/common/thread_pool.hpp"
#include "origami/core/balancers.hpp"
#include "origami/core/meta_opt.hpp"
#include "origami/core/pipeline.hpp"
#include "origami/engine/observer.hpp"
#include "origami/fs/live_replay.hpp"
#include "origami/policy/registry.hpp"
#include "origami/wl/generators.hpp"

#include "support/epoch_policy_golden_configs.hpp"
#include "support/live_policy_golden_configs.hpp"

namespace origami {
namespace {

// Captured by tools/goldens.cpp; regenerate only with it and audit the diff.
#include "support/epoch_policy_goldens.inc"
#include "support/live_policy_goldens.inc"

using cluster::ReplayOptions;
using cluster::RunResult;
using policy::Registry;

wl::Trace small_rw(std::uint64_t seed, std::uint64_t ops = 6'000) {
  wl::TraceRwConfig cfg;
  cfg.seed = seed;
  cfg.ops = ops;
  return wl::make_trace_rw(cfg);
}

ReplayOptions small_options(std::uint64_t seed = 11) {
  ReplayOptions opt;
  opt.mds_count = 5;
  opt.clients = 8;
  opt.epoch_length = sim::millis(100);
  opt.warmup_epochs = 1;
  opt.seed = seed;
  return opt;
}

ReplayOptions with_faults(ReplayOptions opt) {
  opt.faults.seed = 2027;
  opt.faults.crash_prob = 0.05;
  opt.faults.crash_recovery = sim::millis(40);
  opt.faults.rpc_loss_prob = 0.001;
  opt.retry.max_retries = 4;
  opt.retry.timeout = sim::millis(2);
  return opt;
}

// ------------------------------------------------------------- parsing --
// Policy specs go through the shared grammar (common::parse_spec, whose own
// cases are SpecGrammar.*); these pin the policy spellings it must keep.

TEST(PolicySpec, ParsesBareName) {
  auto r = common::parse_spec("origami");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().name, "origami");
  EXPECT_TRUE(r.value().params.empty());
  EXPECT_TRUE(Registry::builtin().validate("origami").is_ok());
}

TEST(PolicySpec, ParsesParams) {
  const char* text = "origami:budget=4,min-ops=2,trigger=0.2";
  auto r = common::parse_spec(text);
  ASSERT_TRUE(r.is_ok());
  const auto& spec = r.value();
  EXPECT_EQ(spec.name, "origami");
  ASSERT_EQ(spec.params.size(), 3u);
  EXPECT_EQ(spec.params[0].first, "budget");
  EXPECT_EQ(spec.params[0].second, "4");
  EXPECT_EQ(spec.params[2].first, "trigger");
  EXPECT_EQ(spec.params[2].second, "0.2");
  const auto s = Registry::builtin().validate(text);
  EXPECT_TRUE(s.is_ok()) << s.to_string();
}

TEST(PolicySpec, RejectsMalformedSpecs) {
  // A malformed spelling of a registered policy fails in the grammar,
  // before its name is looked up.
  for (const char* bad :
       {"", ":budget=4", "origami:novalue", "origami:=3", "origami:budget=1,b",
        "origami:budget=1,", "origami:,budget=1", "origami:"}) {
    const auto s = Registry::builtin().validate(bad);
    ASSERT_FALSE(s.is_ok()) << "accepted malformed spec '" << bad << "'";
    EXPECT_EQ(s.code(), common::StatusCode::kInvalidArgument) << bad;
    EXPECT_EQ(s.to_string().find("unknown policy"), std::string::npos)
        << s.to_string();
  }
}

// ---------------------------------------------------- strict validation --

TEST(PolicyRegistry, UnknownPolicyListsRegisteredNames) {
  const auto s = Registry::builtin().validate("bogus");
  ASSERT_FALSE(s.is_ok());
  EXPECT_NE(s.to_string().find("unknown policy 'bogus'"), std::string::npos);
  EXPECT_NE(s.to_string().find("origami"), std::string::npos);
  EXPECT_NE(s.to_string().find("greedy-spill"), std::string::npos);
}

TEST(PolicyRegistry, UnknownParamListsValidKeys) {
  const auto s = Registry::builtin().validate("origami:bogus=1");
  ASSERT_FALSE(s.is_ok());
  EXPECT_NE(s.to_string().find("no parameter 'bogus'"), std::string::npos);
  EXPECT_NE(s.to_string().find("min-benefit"), std::string::npos);
}

TEST(PolicyRegistry, RejectsValuesThatAreNotFiniteNumbers) {
  const Registry& r = Registry::builtin();
  // Integer parameters take plain decimal digits only: strtoll used to read
  // "1e3" as 1, "2.9" as 2, and "-3" as no budget at all.
  for (const char* spec :
       {"greedy-spill:budget=abc", "origami:budget=", "greedy-spill:budget=1e3",
        "greedy-spill:budget=2.9", "greedy-spill:budget=-3",
        "greedy-spill:budget=+3", "greedy-spill:budget= 5",
        "greedy-spill:min-ops=-1", "greedy-spill:budget=9223372036854775808",
        "origami:trigger=0.1x", "origami:trigger=nan",
        "load-frac:alpha=inf"}) {
    const auto s = r.validate(spec);
    ASSERT_FALSE(s.is_ok()) << spec;
    EXPECT_EQ(s.code(), common::StatusCode::kInvalidArgument) << spec;
    const bool real = std::string(spec).find("budget") == std::string::npos &&
                      std::string(spec).find("min-ops") == std::string::npos;
    EXPECT_NE(s.to_string().find(real ? "expected a finite number"
                                      : "expected an integer of decimal"),
              std::string::npos)
        << spec << ": " << s.to_string();
    policy::PolicyContext ctx;
    EXPECT_FALSE(r.make(spec, ctx).is_ok()) << spec;
  }
  EXPECT_FALSE(r.make_live("greedy-spill:budget=abc", {}).is_ok());
  EXPECT_TRUE(r.validate("origami:trigger=1e-1,budget=8").is_ok());
  EXPECT_TRUE(r.validate("greedy-spill:budget=9223372036854775807").is_ok());
}

TEST(PolicyRegistry, RejectsDurationsTheClockCannotHold) {
  // A *-ms or *-us value becomes SimTime nanoseconds in the factory:
  // delta-ms=1e300 used to convert out of range and run.
  const Registry& r = Registry::builtin();
  for (const char* spec :
       {"meta-opt:delta-ms=1e300", "meta-opt:stop-us=1e300",
        "origami:delta-ms=1e300", "origami:delta-ms=-1e300",
        "origami:delta-ms=9223372036855", "meta-opt:stop-us=1e16"}) {
    const auto s = r.validate(spec);
    ASSERT_FALSE(s.is_ok()) << spec;
    EXPECT_EQ(s.code(), common::StatusCode::kInvalidArgument) << spec;
    EXPECT_NE(s.to_string().find("simulator clock"), std::string::npos)
        << spec << ": " << s.to_string();
    EXPECT_FALSE(r.make(spec, {}).is_ok()) << spec;
  }
  EXPECT_FALSE(r.make_live("origami:delta-ms=1e300", {}).is_ok());
  for (const char* spec : {"origami:delta-ms=9223372036854",
                           "meta-opt:stop-us=9e15", "meta-opt:delta-ms=0"}) {
    EXPECT_TRUE(r.validate(spec).is_ok())
        << spec << ": " << r.validate(spec).to_string();
  }
}

TEST(PolicyRegistry, EveryEntryValidatesBareAndWithDeclaredParams) {
  const Registry& r = Registry::builtin();
  EXPECT_GE(r.entries().size(), 10u);
  for (const policy::Entry& e : r.entries()) {
    EXPECT_TRUE(r.validate(e.name).is_ok()) << e.name;
    for (const common::ParamDecl& p : e.params) {
      EXPECT_TRUE(r.validate(e.name + ":" + p.key + "=" + p.default_value)
                      .is_ok())
          << e.name << ":" << p.key;
    }
  }
}

TEST(PolicyRegistry, DescribeListsEveryPolicyAndSchema) {
  const std::string text = Registry::builtin().describe();
  for (const policy::Entry& e : Registry::builtin().entries()) {
    EXPECT_NE(text.find(e.name), std::string::npos) << e.name;
    for (const common::ParamDecl& p : e.params) {
      EXPECT_NE(text.find(p.key + "=" + p.default_value), std::string::npos)
          << e.name << ":" << p.key;
    }
  }
  EXPECT_NE(text.find("when:"), std::string::npos);
  EXPECT_NE(text.find("where:"), std::string::npos);
  EXPECT_NE(text.find("howmuch:"), std::string::npos);
  EXPECT_NE(text.find("modes: epoch + live"), std::string::npos);
}

TEST(PolicyRegistry, FixedNeedsConvergedContext) {
  policy::PolicyContext ctx;
  const auto made = Registry::builtin().make("fixed", ctx);
  ASSERT_FALSE(made.is_ok());
  EXPECT_NE(made.status().to_string().find("converged"), std::string::npos);
}

TEST(PolicyRegistry, StaticPoliciesHaveNoLiveForm) {
  policy::PolicyContext ctx;
  const auto made = Registry::builtin().make_live("c-hash", ctx);
  ASSERT_FALSE(made.is_ok());
  EXPECT_NE(made.status().to_string().find("no live-mode form"),
            std::string::npos);
}

// ------------------------------------------------------ trigger smoother --

TEST(TriggerSmoother, PassthroughWithoutSmoothing) {
  core::TriggerSmoother s;
  EXPECT_FALSE(s.over(0.4, 0.5, /*ewma_alpha=*/1.0, /*patience=*/1));
  EXPECT_TRUE(s.over(0.6, 0.5, 1.0, 1));
  EXPECT_DOUBLE_EQ(s.smoothed(), 0.6);
}

TEST(TriggerSmoother, EwmaBlendsHistory) {
  core::TriggerSmoother s;
  s.over(1.0, 10.0, 0.5, 1);  // seeds smoothed_ with the first raw sample
  EXPECT_DOUBLE_EQ(s.smoothed(), 1.0);
  s.over(0.0, 10.0, 0.5, 1);
  EXPECT_DOUBLE_EQ(s.smoothed(), 0.5);
}

TEST(TriggerSmoother, PatienceCountsConsecutiveEpochs) {
  core::TriggerSmoother s;
  EXPECT_FALSE(s.over(0.9, 0.5, 1.0, 3));
  EXPECT_FALSE(s.over(0.9, 0.5, 1.0, 3));
  EXPECT_TRUE(s.over(0.9, 0.5, 1.0, 3));
  // A below-threshold epoch resets the streak.
  EXPECT_FALSE(s.over(0.1, 0.5, 1.0, 3));
  EXPECT_FALSE(s.over(0.9, 0.5, 1.0, 3));
}

TEST(TriggerSmoother, ResetForgetsEverything) {
  core::TriggerSmoother s;
  s.over(0.9, 0.5, 0.5, 1);
  s.reset();
  s.over(0.3, 10.0, 0.5, 1);
  EXPECT_DOUBLE_EQ(s.smoothed(), 0.3);  // re-seeded, not blended
}

TEST(TriggerSmoother, RebalanceTriggerKeepsLegacySingleEpochBehavior) {
  // threshold-only construction == the historical alpha=1/patience=1 form.
  core::RebalanceTrigger t{0.05};
  EXPECT_DOUBLE_EQ(t.threshold, 0.05);
  EXPECT_DOUBLE_EQ(t.ewma_alpha, 1.0);
  EXPECT_EQ(t.patience, 1);
}

// ------------------------------------------------- construct round trips --

void expect_identical(const RunResult& a, const RunResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.completed_ops, b.completed_ops) << label;
  EXPECT_EQ(a.makespan, b.makespan) << label;
  EXPECT_EQ(a.throughput_ops, b.throughput_ops) << label;
  EXPECT_EQ(a.steady_throughput_ops, b.steady_throughput_ops) << label;
  EXPECT_EQ(a.mean_latency_us, b.mean_latency_us) << label;
  EXPECT_EQ(a.p99_latency_us, b.p99_latency_us) << label;
  EXPECT_EQ(a.total_rpcs, b.total_rpcs) << label;
  EXPECT_EQ(a.migrations, b.migrations) << label;
  EXPECT_EQ(a.inodes_migrated, b.inodes_migrated) << label;
  EXPECT_EQ(a.imf_busy, b.imf_busy) << label;
  EXPECT_EQ(a.faults.retries, b.faults.retries) << label;
  EXPECT_EQ(a.faults.crashes, b.faults.crashes) << label;
  EXPECT_EQ(a.faults.failovers, b.faults.failovers) << label;
  EXPECT_EQ(a.faults.prepared_migrations, b.faults.prepared_migrations)
      << label;
  EXPECT_EQ(a.faults.committed_migrations, b.faults.committed_migrations)
      << label;
  EXPECT_EQ(a.faults.aborted_migrations, b.faults.aborted_migrations) << label;
  EXPECT_EQ(a.faults.fenced_rejections, b.faults.fenced_rejections) << label;
  EXPECT_EQ(a.final_dir_owner, b.final_dir_owner) << label;
  EXPECT_EQ(a.hash_file_inodes, b.hash_file_inodes) << label;
}

TEST(PolicyRegistry, EveryPolicyRunsDeterministically) {
  const wl::Trace trace = small_rw(/*seed=*/5);
  const ReplayOptions opt = small_options();

  // f-hash's converged map feeds "fixed".
  cluster::StaticBalancer fhash(cluster::StaticBalancer::Kind::kFineHash);
  const RunResult converged = cluster::replay_trace(trace, opt, fhash);

  for (const policy::Entry& e : Registry::builtin().entries()) {
    policy::PolicyContext ctx;
    ctx.options = &opt;
    ctx.converged = &converged;
    RunResult runs[2];
    for (int i = 0; i < 2; ++i) {
      auto made = Registry::builtin().make(e.name, ctx);
      ASSERT_TRUE(made.is_ok()) << e.name;
      auto balancer = std::move(made).value();
      runs[i] = cluster::replay_trace(trace, opt, *balancer);
    }
    EXPECT_GT(runs[0].completed_ops, 0u) << e.name;
    expect_identical(runs[0], runs[1], e.name);
  }
}

TEST(PolicyRegistry, LivePoliciesRunDeterministically) {
  const wl::Trace trace = small_rw(/*seed=*/9, /*ops=*/20'000);
  for (const policy::Entry& e : Registry::builtin().entries()) {
    if (!e.make_live) continue;
    fs::LiveReplayStats runs[2];
    for (int i = 0; i < 2; ++i) {
      policy::PolicyContext ctx;
      auto made = Registry::builtin().make_live(e.name, ctx);
      ASSERT_TRUE(made.is_ok()) << e.name;
      auto live = std::move(made).value();
      fs::OrigamiFs::Options fopt;
      fopt.shards = 5;
      fs::OrigamiFs fsys(fopt);
      fs::LiveReplayOptions lro;
      lro.epoch_ops = 4'000;
      lro.on_epoch = [&live](fs::OrigamiFs& f, fs::LiveFaultContext& c) {
        return live->on_epoch(f, c);
      };
      runs[i] = fs::replay_on_live(trace, fsys, lro);
    }
    EXPECT_GT(runs[0].executed, 0u) << e.name;
    EXPECT_EQ(runs[0].executed, runs[1].executed) << e.name;
    EXPECT_EQ(runs[0].failed, runs[1].failed) << e.name;
    EXPECT_EQ(runs[0].migrations, runs[1].migrations) << e.name;
    EXPECT_EQ(runs[0].shard_ops, runs[1].shard_ops) << e.name;
  }
}

// ----------------------------------------------------- golden byte check --

class PolicyGolden : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // A tiny model pair so ml-tree/origami actually decide something; both
    // construction paths receive the same shared pointers.
    const wl::Trace training = small_rw(/*seed=*/99, /*ops=*/8'000);
    core::LabelGenOptions lg;
    lg.replay = small_options();
    lg.meta_opt.min_subtree_ops = 8;
    lg.meta_opt.stop_threshold = sim::micros(500);
    lg.min_feature_ops = 4;
    ml::GbdtParams gbdt;
    gbdt.rounds = 24;
    models_ = new core::TrainedModels(
        core::train_from_trace(training, lg, gbdt));
  }
  static void TearDownTestSuite() {
    delete models_;
    models_ = nullptr;
  }

  static core::TrainedModels* models_;
};

core::TrainedModels* PolicyGolden::models_ = nullptr;

/// The historical direct constructions the registry entries must reproduce
/// byte-for-byte (origami_sim's pre-registry code path).
std::unique_ptr<cluster::Balancer> direct_construct(
    const std::string& name, const ReplayOptions& opt,
    const core::TrainedModels& models, const RunResult* converged) {
  const core::RebalanceTrigger trigger{0.05};
  if (name == "single") {
    return std::make_unique<cluster::StaticBalancer>(
        cluster::StaticBalancer::Kind::kSingle);
  }
  if (name == "c-hash") {
    return std::make_unique<cluster::StaticBalancer>(
        cluster::StaticBalancer::Kind::kCoarseHash);
  }
  if (name == "f-hash") {
    return std::make_unique<cluster::StaticBalancer>(
        cluster::StaticBalancer::Kind::kFineHash);
  }
  if (name == "fixed") {
    return std::make_unique<cluster::FixedPartitionBalancer>(*converged);
  }
  if (name == "ml-tree") {
    core::MlTreeBalancer::Params p;
    return std::make_unique<core::MlTreeBalancer>(models.popularity, p,
                                                  trigger);
  }
  if (name == "origami") {
    core::OrigamiBalancer::Params p;
    p.cache_enabled = opt.cache_enabled;
    p.cache_depth = opt.cache_depth;
    return std::make_unique<core::OrigamiBalancer>(
        models.benefit, cost::CostModel(opt.cost_params), p, trigger);
  }
  if (name == "meta-opt") {
    core::MetaOptParams p;
    p.cache_enabled = opt.cache_enabled;
    p.cache_depth = opt.cache_depth;
    return std::make_unique<core::MetaOptOracleBalancer>(
        cost::CostModel(opt.cost_params), p, trigger);
  }
  return nullptr;
}

TEST_F(PolicyGolden, RegistryReproducesLegacyConstructionsByteIdentically) {
  const char* kLegacy[] = {"single", "c-hash", "f-hash", "fixed",
                           "ml-tree", "origami", "meta-opt"};
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const wl::Trace trace = small_rw(seed);
    for (const bool faulty : {false, true}) {
      ReplayOptions opt = small_options(/*seed=*/seed + 100);
      if (faulty) opt = with_faults(opt);

      cluster::StaticBalancer fhash(cluster::StaticBalancer::Kind::kFineHash);
      const RunResult converged = cluster::replay_trace(trace, opt, fhash);

      for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        common::set_analysis_threads(threads);
        for (const char* name : kLegacy) {
          const std::string label =
              std::string(name) + " seed=" + std::to_string(seed) +
              (faulty ? " faults" : " clean") +
              " threads=" + std::to_string(threads);

          auto direct = direct_construct(name, opt, *models_, &converged);
          ASSERT_NE(direct, nullptr) << label;
          const RunResult want = cluster::replay_trace(trace, opt, *direct);

          policy::PolicyContext ctx;
          ctx.options = &opt;
          ctx.benefit_model = models_->benefit;
          ctx.popularity_model = models_->popularity;
          ctx.converged = &converged;
          auto made = Registry::builtin().make(name, ctx);
          ASSERT_TRUE(made.is_ok()) << label;
          auto from_registry = std::move(made).value();
          const RunResult got =
              cluster::replay_trace(trace, opt, *from_registry);

          expect_identical(want, got, label);
        }
      }
      common::set_analysis_threads(1);
    }
  }
}

// ------------------------------------------- live two-phase ownership --

/// Forwards to the engine's fault context and counts every PREPARE whose
/// named source no longer owns the subtree: a move planned from a stale
/// view of the namespace.
class OwnerCheckingContext final : public fs::LiveFaultContext {
 public:
  OwnerCheckingContext(fs::LiveFaultContext& inner, const fs::OrigamiFs& fsys)
      : inner_(inner), fsys_(fsys) {}

  [[nodiscard]] bool shard_down(std::uint32_t shard) const override {
    return inner_.shard_down(shard);
  }
  void record_prepare(fs::Ino subtree, std::uint32_t from,
                      std::uint32_t to) override {
    ++prepares;
    if (fsys_.dir_shard(subtree) != from) ++stale_sources;
    inner_.record_prepare(subtree, from, to);
  }
  void record_commit(fs::Ino subtree, std::uint32_t from,
                     std::uint32_t to) override {
    inner_.record_commit(subtree, from, to);
  }
  void record_abort(fs::Ino subtree, std::uint32_t from,
                    std::uint32_t to) override {
    inner_.record_abort(subtree, from, to);
  }

  std::uint64_t prepares = 0;
  std::uint64_t stale_sources = 0;

 private:
  fs::LiveFaultContext& inner_;
  const fs::OrigamiFs& fsys_;
};

TEST(LivePolicy, EveryPrepareNamesTheSubtreesCurrentOwner) {
  for (const policy::Entry& e : Registry::builtin().entries()) {
    if (!e.make_live) continue;
    for (std::uint64_t seed : {1, 2, 3}) {
      for (const bool faulted : {false, true}) {
        policy::PolicyContext ctx;
        ctx.benefit_model = testing::read_share_model();
        auto made = Registry::builtin().make_live(e.name, ctx);
        ASSERT_TRUE(made.is_ok()) << e.name;
        const auto live = std::move(made).value();
        fs::OrigamiFs::Options fopt;
        fopt.shards = testing::kLivePolicyShards;
        fs::OrigamiFs fsys(fopt);
        std::uint64_t prepares = 0;
        std::uint64_t stale = 0;
        fs::LiveReplayOptions opt =
            testing::live_policy_options(seed, faulted);
        opt.on_epoch = [&](fs::OrigamiFs& f, fs::LiveFaultContext& c) {
          OwnerCheckingContext checked(c, f);
          const std::uint64_t moved = live->on_epoch(f, checked);
          prepares += checked.prepares;
          stale += checked.stale_sources;
          return moved;
        };
        (void)fs::replay_on_live(testing::live_policy_trace(seed), fsys, opt);
        EXPECT_EQ(stale, 0u) << e.name << " seed " << seed
                             << (faulted ? " faulted" : " clean") << ", of "
                             << prepares << " PREPAREs";
      }
    }
  }
}

// ------------------------------------------------ epoch-policy goldens --
// The model-driven epoch policies pinned byte for byte, clean and faulted,
// together with the fit behind their models, on the configs in
// tests/support/epoch_policy_golden_configs.hpp.

const EpochPolicyGolden* find_epoch_policy_golden(const std::string& key) {
  for (const EpochPolicyGolden& g : kEpochPolicyGoldens) {
    if (key == g.key) return &g;
  }
  return nullptr;
}

void expect_epoch_policy_goldens(const std::string& key) {
  for (const testing::EpochPolicyGoldenSpec& p :
       testing::kEpochPolicyGoldenSpecs) {
    if (key != p.key) continue;
    for (std::uint64_t seed : {1, 2, 3}) {
      for (const bool faulted : {false, true}) {
        const std::string golden_key = key + "/" + std::to_string(seed) +
                                       (faulted ? "/faulted" : "/clean");
        const EpochPolicyGolden* golden = find_epoch_policy_golden(golden_key);
        ASSERT_NE(golden, nullptr) << "no golden for " << golden_key;
        EXPECT_EQ(testing::epoch_policy_run(p.spec, seed, faulted),
                  golden->fp)
            << golden_key;
      }
    }
    return;
  }
  ADD_FAILURE() << "no epoch-policy golden spec for " << key;
}

TEST(EpochPolicyGolden, TrainedModels) {
  const core::TrainedModels& models = testing::epoch_policy_models();
  for (const auto& [key, model] :
       {std::pair{"model/benefit", models.benefit.get()},
        std::pair{"model/popularity", models.popularity.get()}}) {
    const EpochPolicyGolden* golden = find_epoch_policy_golden(key);
    ASSERT_NE(golden, nullptr) << "no golden for " << key;
    EXPECT_EQ(testing::model_fingerprint(*model), golden->fp) << key;
  }
}
TEST(EpochPolicyGolden, Origami) { expect_epoch_policy_goldens("origami"); }
TEST(EpochPolicyGolden, OrigamiCapped) {
  expect_epoch_policy_goldens("origami-capped");
}
TEST(EpochPolicyGolden, MlTree) { expect_epoch_policy_goldens("ml-tree"); }

// ------------------------------------------------- live-policy goldens --
// Every migrating live form pinned byte for byte, clean and faulted, on
// the configs in tests/support/live_policy_golden_configs.hpp.

void expect_live_policy_goldens(const std::string& key) {
  for (const testing::LivePolicyGoldenSpec& p :
       testing::kLivePolicyGoldenSpecs) {
    if (key != p.key) continue;
    for (std::uint64_t seed : {1, 2, 3}) {
      for (const bool faulted : {false, true}) {
        const std::string golden_key = key + "/" + std::to_string(seed) +
                                       (faulted ? "/faulted" : "/clean");
        const LivePolicyGolden* golden = nullptr;
        for (const LivePolicyGolden& g : kLivePolicyGoldens) {
          if (golden_key == g.key) golden = &g;
        }
        ASSERT_NE(golden, nullptr) << "no golden for " << golden_key;
        EXPECT_EQ(testing::live_policy_run(p.spec, seed, faulted), golden->fp)
            << golden_key;
      }
    }
    return;
  }
  ADD_FAILURE() << "no live-policy golden spec for " << key;
}

TEST(LivePolicyGolden, Origami) { expect_live_policy_goldens("origami"); }
TEST(LivePolicyGolden, GreedySpill) {
  expect_live_policy_goldens("greedy-spill");
}
TEST(LivePolicyGolden, HashRepart) {
  expect_live_policy_goldens("hash-repart");
}
TEST(LivePolicyGolden, LoadFrac) { expect_live_policy_goldens("load-frac"); }

// ---------------------------------------------------- observer ordering --

/// Serialises every hook invocation into a tagged line, so two runs can be
/// compared as whole event streams.
class RecordingObserver final : public engine::Observer {
 public:
  void on_epoch_begin(const cluster::EpochSnapshot& snap) override {
    add("begin:" + std::to_string(snap.epoch));
  }
  void on_decisions(
      std::uint32_t epoch,
      std::span<const cluster::MigrationDecision> ds) override {
    add("decide:" + std::to_string(epoch) + ":" + std::to_string(ds.size()));
  }
  void on_migration_phase(const engine::MigrationPhaseEvent& ev) override {
    add("mig:" + std::to_string(static_cast<int>(ev.phase)) + ":" +
        std::to_string(ev.subtree) + ":" + std::to_string(ev.from) + ">" +
        std::to_string(ev.to) + "@" + std::to_string(ev.at));
  }
  void on_fault(const engine::FaultEvent& ev) override {
    add("fault:" + std::to_string(static_cast<int>(ev.kind)) + ":" +
        std::to_string(ev.mds) + "@" + std::to_string(ev.at));
  }
  void on_epoch_end(const cluster::EpochMetrics& em,
                    const engine::EpochCounters& delta) override {
    add("end:" + std::to_string(delta.epoch) + ":" +
        std::to_string(em.migrations) + ":" +
        std::to_string(delta.completed_ops) + ":" +
        std::to_string(delta.committed_migrations) + ":" +
        std::to_string(delta.aborted_migrations) + ":" +
        std::to_string(delta.fenced_rejections));
  }
  void on_run_end(const cluster::RunResult& result) override {
    add("run_end:" + std::to_string(result.completed_ops));
  }

  std::vector<std::string> events;

 private:
  void add(std::string s) { events.push_back(std::move(s)); }
};

TEST(ObserverBus, HookSequenceIsDeterministicAcrossThreadCounts) {
  const wl::Trace trace = small_rw(/*seed=*/7, /*ops=*/12'000);
  const ReplayOptions opt = with_faults(small_options(/*seed=*/21));

  auto run_with = [&](std::size_t threads) {
    common::set_analysis_threads(threads);
    RecordingObserver obs;
    ReplayOptions o = opt;
    o.observers.push_back(&obs);
    policy::PolicyContext ctx;
    ctx.options = &o;
    auto made = Registry::builtin().make("greedy-spill:trigger=0.02", ctx);
    EXPECT_TRUE(made.is_ok());
    auto balancer = std::move(made).value();
    cluster::replay_trace(trace, o, *balancer);
    common::set_analysis_threads(1);
    return obs.events;
  };

  const std::vector<std::string> at1 = run_with(1);
  const std::vector<std::string> at8 = run_with(8);
  EXPECT_EQ(at1, at8);

  // Shape: interleaved begin/decide/end triples, one run_end, and a
  // well-formed stream overall.
  ASSERT_FALSE(at1.empty());
  EXPECT_EQ(at1.back().rfind("run_end:", 0), 0u);
  std::size_t begins = 0;
  std::size_t ends = 0;
  std::size_t run_ends = 0;
  for (const std::string& e : at1) {
    begins += e.rfind("begin:", 0) == 0;
    ends += e.rfind("end:", 0) == 0;
    run_ends += e.rfind("run_end:", 0) == 0;
  }
  EXPECT_GT(begins, 0u);
  EXPECT_EQ(begins, ends);
  EXPECT_EQ(run_ends, 1u);
}

TEST(ObserverBus, ObservedRunIsByteIdenticalToUnobservedRun) {
  const wl::Trace trace = small_rw(/*seed=*/13);
  const ReplayOptions opt = with_faults(small_options(/*seed=*/31));
  policy::PolicyContext ctx;
  ctx.options = &opt;

  auto plain = Registry::builtin().make("load-frac", ctx);
  ASSERT_TRUE(plain.is_ok());
  auto b1 = std::move(plain).value();
  const RunResult want = cluster::replay_trace(trace, opt, *b1);

  RecordingObserver obs;
  ReplayOptions observed = opt;
  observed.observers.push_back(&obs);
  auto made = Registry::builtin().make("load-frac", ctx);
  ASSERT_TRUE(made.is_ok());
  auto b2 = std::move(made).value();
  const RunResult got = cluster::replay_trace(trace, observed, *b2);

  expect_identical(want, got, "load-frac observed-vs-plain");
  EXPECT_FALSE(obs.events.empty());
}

}  // namespace
}  // namespace origami
