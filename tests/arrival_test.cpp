// Tests for the arrival plane (wl/arrival.hpp): spec parsing, strict
// registry validation, the catalogue, the legacy-mapping resolver, and —
// the load-bearing part — the golden byte-identity contract: the closed
// and open loops replayed through `ArrivalPolicy` must reproduce the
// pre-refactor engines' output exactly, in BOTH execution planes (epoch
// DES and live service), clean and faulted, across seeds. The goldens in
// tests/support/arrival_goldens.inc were captured before the refactor;
// regenerate them only with tools/goldens.cpp and audit the diff.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "origami/cluster/replay.hpp"
#include "origami/engine/observer.hpp"
#include "origami/fs/live_replay.hpp"
#include "origami/policy/registry.hpp"
#include "origami/wl/arrival.hpp"
#include "origami/wl/generators.hpp"

#include "support/arrival_golden_configs.hpp"
#include "support/fingerprints.hpp"

namespace origami {
namespace {

#include "support/arrival_goldens.inc"

std::string golden_for(const std::string& key) {
  for (const Golden& g : kGoldens) {
    if (key == g.key) return g.fp;
  }
  ADD_FAILURE() << "no golden for key " << key;
  return {};
}

std::string key_of(const char* plane, std::uint64_t seed, bool faulted,
                   bool open) {
  return std::string(plane) + "/" + std::to_string(seed) +
         (faulted ? "/faulted" : "/clean") + (open ? "/open" : "/closed");
}

cluster::RunResult run_epoch(const wl::Trace& trace,
                             const cluster::ReplayOptions& opt) {
  policy::PolicyContext ctx;
  ctx.options = &opt;
  auto made = policy::Registry::builtin().make("greedy-spill", ctx);
  EXPECT_TRUE(made.is_ok()) << made.status().to_string();
  return cluster::replay_trace(trace, opt, *made.value());
}

fs::LiveReplayStats run_live(const wl::Trace& trace,
                             const fs::LiveReplayOptions& opt) {
  fs::OrigamiFs::Options fopt;
  fopt.shards = 4;
  fs::OrigamiFs fsys(fopt);
  return fs::replay_on_live(trace, fsys, opt);
}

// ---------------------------------------------------------------- goldens --

TEST(ArrivalGolden, EpochPlaneByteIdenticalToPreRefactorEngines) {
  for (std::uint64_t seed : {1, 2, 3}) {
    const wl::Trace trace = testing::golden_trace(seed);
    for (const bool faulted : {false, true}) {
      for (const bool open : {false, true}) {
        const auto opt = testing::golden_epoch_options(seed, faulted, open);
        const auto r = run_epoch(trace, opt);
        EXPECT_EQ(r.arrival_name, open ? "open" : "closed");
        EXPECT_EQ(testing::run_result_fingerprint(r),
                  golden_for(key_of("epoch", seed, faulted, open)))
            << "epoch plane diverged (seed " << seed << ", faulted "
            << faulted << ", open " << open << ")";
      }
    }
  }
}

TEST(ArrivalGolden, LivePlaneByteIdenticalToPreRefactorEngines) {
  for (std::uint64_t seed : {1, 2, 3}) {
    const wl::Trace trace = testing::golden_trace(seed);
    for (const bool faulted : {false, true}) {
      for (const bool open : {false, true}) {
        const auto opt = testing::golden_live_options(seed, faulted, open);
        const auto stats = run_live(trace, opt);
        EXPECT_EQ(testing::live_stats_fingerprint(stats),
                  golden_for(key_of("live", seed, faulted, open)))
            << "live plane diverged (seed " << seed << ", faulted "
            << faulted << ", open " << open << ")";
      }
    }
  }
}

// The explicit spec spellings construct the same processes as the legacy
// field mapping — `--arrival=open:rate=R` IS the old `open_loop_rate = R`.
TEST(ArrivalGolden, ExplicitSpecsMatchLegacyFieldMapping) {
  const std::uint64_t seed = 2;
  const wl::Trace trace = testing::golden_trace(seed);
  {
    auto opt = testing::golden_epoch_options(seed, /*faulted=*/true,
                                             /*open=*/false);
    opt.arrival = "closed";
    EXPECT_EQ(testing::run_result_fingerprint(run_epoch(trace, opt)),
              golden_for(key_of("epoch", seed, true, false)));
  }
  {
    auto opt = testing::golden_epoch_options(seed, /*faulted=*/true,
                                             /*open=*/true);
    opt.open_loop_rate = 0.0;
    opt.arrival = "open:rate=120000";
    EXPECT_EQ(testing::run_result_fingerprint(run_epoch(trace, opt)),
              golden_for(key_of("epoch", seed, true, true)));
  }
  {
    auto opt = testing::golden_live_options(seed, /*faulted=*/true,
                                            /*open=*/true);
    opt.issue_rate = 0.0;
    opt.arrival = "paced:rate=150000";
    EXPECT_EQ(testing::live_stats_fingerprint(run_live(trace, opt)),
              golden_for(key_of("live", seed, true, true)));
  }
}

// ----------------------------------------------------------- spec parsing --

TEST(ArrivalSpec, ParsesNameAndParams) {
  auto r = wl::parse_arrival_spec("bursty:rate=9000,amp=0.3");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().name, "bursty");
  ASSERT_EQ(r.value().params.size(), 2u);
  EXPECT_EQ(r.value().params[0].first, "rate");
  EXPECT_EQ(r.value().params[0].second, "9000");
  EXPECT_EQ(r.value().params[1].first, "amp");
  EXPECT_EQ(r.value().params[1].second, "0.3");
}

TEST(ArrivalSpec, RejectsMalformedSpecs) {
  for (const char* bad : {"", ":k=v", "x:novalue", "x:=3", "x:a=1,b",
                          "x:a=1,", "x:,a=1"}) {
    EXPECT_FALSE(wl::parse_arrival_spec(bad).is_ok())
        << "accepted malformed spec '" << bad << "'";
  }
}

TEST(ArrivalRegistry, UnknownNameListsRegisteredProcesses) {
  const auto s = wl::ArrivalRegistry::builtin().validate("warble");
  ASSERT_FALSE(s.is_ok());
  EXPECT_NE(s.to_string().find("closed"), std::string::npos);
  EXPECT_NE(s.to_string().find("bursty"), std::string::npos);
}

TEST(ArrivalRegistry, UnknownParamListsValidKeys) {
  const auto s = wl::ArrivalRegistry::builtin().validate("bursty:ratee=1");
  ASSERT_FALSE(s.is_ok());
  EXPECT_NE(s.to_string().find("rate"), std::string::npos);
  EXPECT_NE(s.to_string().find("spike-prob"), std::string::npos);
}

TEST(ArrivalRegistry, RejectsOutOfRangeValues) {
  const auto& reg = wl::ArrivalRegistry::builtin();
  for (const char* bad :
       {"open:rate=-1", "open:rate=0", "open:rate=nope", "paced:rate=-2",
        "trace:speed=0", "bursty:rate=-5", "bursty:spike-prob=1.5",
        "bursty:amp=-0.1", "tenant:tenants=0", "tenant:rate=-1",
        "tenant:burst=0"}) {
    EXPECT_FALSE(reg.validate(bad).is_ok())
        << "accepted out-of-range spec '" << bad << "'";
  }
  for (const char* good :
       {"closed", "open", "open:rate=1", "paced:rate=250000",
        "trace:speed=0.5", "bursty:spike-prob=0", "bursty:amp=1",
        "tenant:tenants=3,rate=100,burst=1"}) {
    EXPECT_TRUE(reg.validate(good).is_ok())
        << "rejected valid spec '" << good << "': "
        << reg.validate(good).to_string();
  }
}

TEST(ArrivalRegistry, TraceReplayNeedsTimedWorkload) {
  const auto& reg = wl::ArrivalRegistry::builtin();
  // Validation (no trace in hand) passes; construction demands timestamps.
  EXPECT_TRUE(reg.validate("trace").is_ok());
  const wl::Trace untimed = testing::golden_trace(1);
  auto made = reg.make("trace", {&untimed, 4});
  ASSERT_FALSE(made.is_ok());
  EXPECT_NE(made.status().to_string().find("timestamps"), std::string::npos);

  wl::TraceFalconConfig cfg;
  cfg.ops = 2'000;
  const wl::Trace timed = wl::make_trace_falcon(cfg);
  ASSERT_TRUE(timed.timed());
  EXPECT_TRUE(reg.make("trace", {&timed, 4}).is_ok());
}

TEST(ArrivalRegistry, DescribeCoversEveryEntry) {
  const auto& reg = wl::ArrivalRegistry::builtin();
  const std::string cat = reg.describe();
  ASSERT_EQ(reg.entries().size(), 6u);
  for (const auto& e : reg.entries()) {
    EXPECT_NE(cat.find(e.name), std::string::npos) << e.name;
    for (const auto& p : e.params) {
      EXPECT_NE(cat.find(p.key + "=" + p.default_value), std::string::npos)
          << e.name << ":" << p.key;
    }
  }
}

// -------------------------------------------------------- legacy resolver --

TEST(ArrivalResolve, LegacyMappingSelectsThePlanesHistoricalLoop) {
  EXPECT_STREQ(wl::resolve_arrival("", 0.0, true, {})->name(), "closed");
  EXPECT_STREQ(wl::resolve_arrival("", 0.0, false, {})->name(), "closed");
  EXPECT_STREQ(wl::resolve_arrival("", 5000.0, true, {})->name(), "open");
  EXPECT_STREQ(wl::resolve_arrival("", 5000.0, false, {})->name(), "paced");
  // An explicit spec wins over the legacy rate.
  EXPECT_STREQ(wl::resolve_arrival("closed", 5000.0, true, {})->name(),
               "closed");
  EXPECT_THROW((void)wl::resolve_arrival("warble", 0.0, true, {}),
               std::invalid_argument);
  EXPECT_THROW((void)wl::resolve_arrival("open:rate=-1", 0.0, true, {}),
               std::invalid_argument);
}

TEST(ArrivalResolve, PacedGapMatchesLegacyArithmetic) {
  auto paced = wl::make_paced_arrival(150'000.0);
  common::Xoshiro256 rng(1);
  // Legacy: gap = max(1, llround(1e9 / rate)); arrival(i) = gap * i.
  const sim::SimTime gap = 6667;
  EXPECT_EQ(paced->first_arrival(), 0);
  EXPECT_EQ(paced->next_arrival(1, 0, rng), gap);
  EXPECT_EQ(paced->next_arrival(7, 6 * gap, rng), 7 * gap);
}

// ------------------------------------------------ engine-level invariants --

TEST(ArrivalEngine, RunResultNamesTheArrivalProcess) {
  const wl::Trace trace = testing::golden_trace(1);
  auto opt = testing::golden_epoch_options(1, false, false);
  opt.arrival = "bursty:rate=150000,seed=9";
  const auto r = run_epoch(trace, opt);
  EXPECT_EQ(r.arrival_name, "bursty");
  EXPECT_GT(r.completed_ops, 0u);
}

/// Counts arrival events off the observer bus (the sixth seam).
class ArrivalCounter final : public engine::Observer {
 public:
  void on_arrival(const engine::ArrivalEvent& ev) override {
    ++count;
    EXPECT_GE(ev.at, last);
    last = ev.at;
  }
  std::uint64_t count = 0;
  sim::SimTime last = 0;
};

TEST(ArrivalEngine, ObserverSeesEveryIssueInTimeOrder) {
  const wl::Trace trace = testing::golden_trace(1);
  auto opt = testing::golden_epoch_options(1, false, /*open=*/true);
  ArrivalCounter counter;
  opt.observers.push_back(&counter);
  const auto r = run_epoch(trace, opt);
  EXPECT_EQ(counter.count, trace.ops.size());
  EXPECT_EQ(r.completed_ops + r.faults.failed_ops, counter.count);
}

// Every new arrival policy must be byte-identical across shard-thread
// counts on the live plane (the policy draws from policy-owned or
// issuer-owned streams only, never from worker state).
TEST(ArrivalEngine, LiveArrivalsBitIdenticalAcrossShardThreadCounts) {
  wl::TraceFalconConfig cfg;
  cfg.ops = 6'000;
  const wl::Trace timed = wl::make_trace_falcon(cfg);
  const char* specs[] = {"trace:speed=2", "bursty:rate=400000,seed=3",
                         "tenant:tenants=4,rate=50000,burst=8",
                         "paced:rate=300000", "open:rate=300000"};
  for (const char* spec : specs) {
    std::string fp1;
    for (const std::uint32_t threads : {1u, 2u, 8u}) {
      auto opt = testing::golden_live_options(2, /*faulted=*/true,
                                              /*open=*/false);
      opt.arrival = spec;
      opt.shard_threads = threads;
      const std::string fp = testing::live_stats_fingerprint(
          run_live(timed, opt));
      if (threads == 1) {
        fp1 = fp;
      } else {
        EXPECT_EQ(fp, fp1) << spec << " diverged at shard_threads="
                           << threads;
      }
    }
  }
}

// The same specs replayed twice on the epoch DES give the same bytes
// (policy-private RNGs are seeded; nothing leaks from global state).
TEST(ArrivalEngine, EpochArrivalPoliciesAreDeterministic) {
  const wl::Trace trace = testing::golden_trace(3);
  wl::TraceFalconConfig cfg;
  cfg.ops = 6'000;
  const wl::Trace timed = wl::make_trace_falcon(cfg);
  const char* specs[] = {"bursty:rate=200000,seed=5",
                         "tenant:tenants=8,rate=20000", "paced:rate=200000"};
  for (const char* spec : specs) {
    auto opt = testing::golden_epoch_options(3, /*faulted=*/true,
                                             /*open=*/false);
    opt.arrival = spec;
    const std::string a = testing::run_result_fingerprint(
        run_epoch(trace, opt));
    const std::string b = testing::run_result_fingerprint(
        run_epoch(trace, opt));
    EXPECT_EQ(a, b) << spec;
  }
  {
    auto opt = testing::golden_epoch_options(3, false, false);
    opt.arrival = "trace";
    const std::string a =
        testing::run_result_fingerprint(run_epoch(timed, opt));
    const std::string b =
        testing::run_result_fingerprint(run_epoch(timed, opt));
    EXPECT_EQ(a, b) << "trace replay";
  }
}

}  // namespace
}  // namespace origami
