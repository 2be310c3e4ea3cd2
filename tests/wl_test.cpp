// Tests pinning each workload generator to its paper-described shape
// (§5.1) plus trace (de)serialisation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string_view>
#include <vector>

#include "origami/common/rng.hpp"
#include "origami/fsns/path_resolver.hpp"
#include "origami/wl/arrival.hpp"
#include "origami/wl/generators.hpp"
#include "origami/wl/trace.hpp"

namespace origami::wl {
namespace {

using fsns::OpType;

TEST(TraceRw, ShapeMatchesCompileWorkload) {
  TraceRwConfig cfg;
  cfg.ops = 60'000;
  const Trace t = make_trace_rw(cfg);
  EXPECT_EQ(t.name, "trace-rw");
  EXPECT_EQ(t.ops.size(), cfg.ops);
  const TraceSummary s = summarize(t);
  // Read-write mix: creates and unlinks present but reads dominate.
  EXPECT_GT(s.write_fraction, 0.10);
  EXPECT_LT(s.write_fraction, 0.50);
  EXPECT_GT(s.op_counts[static_cast<int>(OpType::kCreate)], 0u);
  EXPECT_GT(s.op_counts[static_cast<int>(OpType::kStat)], 0u);
  EXPECT_GT(s.op_counts[static_cast<int>(OpType::kReaddir)], 0u);
  EXPECT_GT(s.op_counts[static_cast<int>(OpType::kRename)], 0u);
}

TEST(TraceRw, TargetsAreValidAndFilesHaveDirParents) {
  TraceRwConfig cfg;
  cfg.ops = 20'000;
  const Trace t = make_trace_rw(cfg);
  for (const MetaOp& op : t.ops) {
    ASSERT_LT(op.target, t.tree.size());
    if (op.type == OpType::kReaddir) {
      EXPECT_TRUE(t.tree.is_dir(op.target));
    }
    if (op.type == OpType::kRename) {
      ASSERT_NE(op.aux, fsns::kInvalidNode);
      EXPECT_TRUE(t.tree.is_dir(op.aux));
    }
  }
}

TEST(TraceRo, ReadOnlySkewedAndDeep) {
  TraceRoConfig cfg;
  cfg.ops = 60'000;
  const Trace t = make_trace_ro(cfg);
  const TraceSummary s = summarize(t);
  // "only includes read-type operations"
  EXPECT_DOUBLE_EQ(s.write_fraction, 0.0);
  // "extends to a considerable depth" — deeper than ten levels.
  EXPECT_GE(s.max_depth, 11u);
  EXPECT_GT(s.mean_depth, 3.0);
  // "exhibits a significant skew" — top 1% of targets take a large share.
  EXPECT_GT(s.top1pct_share, 0.25);
}

TEST(TraceWi, WriteIntensiveAndDynamic) {
  TraceWiConfig cfg;
  cfg.ops = 60'000;
  const Trace t = make_trace_wi(cfg);
  const TraceSummary s = summarize(t);
  EXPECT_GT(s.write_fraction, 0.60);
  EXPECT_GT(s.op_counts[static_cast<int>(OpType::kCreate)],
            s.op_counts[static_cast<int>(OpType::kStat)]);

  // Dynamism: the hot tenant set rotates per phase, so the most-hit tenant
  // of the first phase should lose its dominance in a later phase.
  const std::size_t phase_len = t.ops.size() / cfg.phases;
  auto tenant_of = [&](fsns::NodeId node) {
    // /volumes/tenantX/... -> ancestor at depth 2
    auto chain = t.tree.ancestors(node);
    return chain.size() > 2 ? chain[2] : chain.back();
  };
  std::map<fsns::NodeId, int> first_phase;
  std::map<fsns::NodeId, int> later_phase;
  for (std::size_t i = 0; i < phase_len; ++i) {
    ++first_phase[tenant_of(t.ops[i].target)];
  }
  for (std::size_t i = 2 * phase_len; i < 3 * phase_len; ++i) {
    ++later_phase[tenant_of(t.ops[i].target)];
  }
  auto hottest = [](const std::map<fsns::NodeId, int>& m) {
    fsns::NodeId best = 0;
    int n = -1;
    for (auto& [k, v] : m) {
      if (v > n) {
        n = v;
        best = k;
      }
    }
    return best;
  };
  EXPECT_NE(hottest(first_phase), hottest(later_phase));
}

TEST(Generators, DeterministicBySeed) {
  TraceRwConfig cfg;
  cfg.ops = 5'000;
  const Trace a = make_trace_rw(cfg);
  const Trace b = make_trace_rw(cfg);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  ASSERT_EQ(a.tree.size(), b.tree.size());
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].target, b.ops[i].target);
    EXPECT_EQ(a.ops[i].type, b.ops[i].type);
  }
  cfg.seed = 999;
  const Trace c = make_trace_rw(cfg);
  std::size_t diff = 0;
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    if (a.ops[i].target != c.ops[i].target) ++diff;
  }
  EXPECT_GT(diff, a.ops.size() / 10);
}

TEST(Generators, MotivationTraceIsReadMostly) {
  const Trace t = make_trace_web_motivation(7, 20'000);
  const TraceSummary s = summarize(t);
  EXPECT_DOUBLE_EQ(s.write_fraction, 0.0);
  EXPECT_GT(s.top1pct_share, 0.2);
}

TEST(Summary, CountsAreConsistent) {
  TraceRwConfig cfg;
  cfg.ops = 10'000;
  const Trace t = make_trace_rw(cfg);
  const TraceSummary s = summarize(t);
  std::uint64_t total = 0;
  for (auto c : s.op_counts) total += c;
  EXPECT_EQ(total, s.total_ops);
  EXPECT_EQ(s.total_ops, t.ops.size());
  EXPECT_GT(s.unique_targets, 100u);
  EXPECT_LE(s.unique_targets, t.tree.size());
}

TEST(TraceIo, SaveLoadRoundtrip) {
  TraceWiConfig cfg;
  cfg.ops = 8'000;
  cfg.tenants = 4;
  cfg.dirs_per_tenant = 40;
  const Trace original = make_trace_wi(cfg);
  const std::string path = ::testing::TempDir() + "/origami_trace_rt.bin";
  ASSERT_TRUE(save_trace(original, path).is_ok());

  auto loaded = load_trace(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  const Trace& t = loaded.value();
  EXPECT_EQ(t.name, original.name);
  ASSERT_EQ(t.tree.size(), original.tree.size());
  ASSERT_EQ(t.ops.size(), original.ops.size());
  for (std::size_t i = 0; i < t.tree.size(); ++i) {
    const auto id = static_cast<fsns::NodeId>(i);
    EXPECT_EQ(t.tree.parent(id), original.tree.parent(id));
    EXPECT_EQ(t.tree.depth(id), original.tree.depth(id));
    EXPECT_EQ(t.tree.node(id).name, original.tree.node(id).name);
    EXPECT_EQ(t.tree.is_dir(id), original.tree.is_dir(id));
  }
  for (std::size_t i = 0; i < t.ops.size(); ++i) {
    EXPECT_EQ(t.ops[i].type, original.ops[i].type);
    EXPECT_EQ(t.ops[i].target, original.ops[i].target);
    EXPECT_EQ(t.ops[i].aux, original.ops[i].aux);
    EXPECT_EQ(t.ops[i].data_bytes, original.ops[i].data_bytes);
  }
  // Subtree metadata is rebuilt by finalize() on load.
  EXPECT_EQ(t.tree.node(fsns::kRootNode).subtree_nodes,
            original.tree.node(fsns::kRootNode).subtree_nodes);
  std::remove(path.c_str());
}

TEST(TraceIo, LoadRejectsMissingAndGarbage) {
  EXPECT_FALSE(load_trace("/nonexistent/path.bin").is_ok());
  const std::string path = ::testing::TempDir() + "/origami_trace_bad.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a trace";
  }
  auto r = load_trace(path);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), common::StatusCode::kCorruption);
  std::remove(path.c_str());
}

class TraceSizes : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceSizes, GeneratorsHonorOpsBudget) {
  const std::uint64_t ops = GetParam();
  TraceRwConfig rw;
  rw.ops = ops;
  EXPECT_EQ(make_trace_rw(rw).ops.size(), ops);
  TraceRoConfig ro;
  ro.ops = ops;
  ro.dirs = 2'000;
  ro.files = 8'000;
  EXPECT_EQ(make_trace_ro(ro).ops.size(), ops);
  TraceWiConfig wi;
  wi.ops = ops;
  wi.tenants = 4;
  wi.dirs_per_tenant = 50;
  EXPECT_EQ(make_trace_wi(wi).ops.size(), ops);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TraceSizes,
                         ::testing::Values(1'000, 10'000, 50'000));

}  // namespace
}  // namespace origami::wl

namespace origami::wl {
namespace {

TEST(TraceMdtest, PhasesAndShape) {
  TraceMdtestConfig cfg;
  cfg.ranks = 8;
  cfg.files_per_rank = 50;
  cfg.iterations = 2;
  const Trace t = make_trace_mdtest(cfg);
  EXPECT_EQ(t.ops.size(), 8u * 50u * 3u * 2u);
  const TraceSummary s = summarize(t);
  // create + unlink = 2/3 of ops.
  EXPECT_NEAR(s.write_fraction, 2.0 / 3.0, 0.01);
  // Flat: every target at depth 3 (/mdtest/rankR/fileF).
  EXPECT_EQ(s.max_depth, 3u);
  EXPECT_NEAR(s.mean_depth, 3.0, 0.01);
  // Perfectly even: top-1% share is ~1% of accesses.
  EXPECT_LT(s.top1pct_share, 0.03);

  // Phase structure: the first ranks*files ops are all creates.
  for (std::size_t i = 0; i < 8u * 50u; ++i) {
    EXPECT_EQ(t.ops[i].type, fsns::OpType::kCreate);
  }
}

}  // namespace
}  // namespace origami::wl

namespace origami::wl {
namespace {

TEST(TraceMixer, GraftsNamespacesAndPreservesOps) {
  TraceMdtestConfig md;
  md.ranks = 4;
  md.files_per_rank = 10;
  md.iterations = 1;
  const Trace a = make_trace_mdtest(md);
  TraceRwConfig rw;
  rw.ops = 500;
  rw.projects = 2;
  rw.modules_per_project = 2;
  rw.sources_per_module = 4;
  rw.headers_shared = 10;
  const Trace b = make_trace_rw(rw);

  const Trace mixed = interleave_traces({&a, &b}, 7, "combo");
  EXPECT_EQ(mixed.name, "combo");
  EXPECT_EQ(mixed.ops.size(), a.ops.size() + b.ops.size());
  // Namespace: both trees plus the two graft points.
  EXPECT_EQ(mixed.tree.size(), a.tree.size() + b.tree.size() + 1);
  // Every op's path is prefixed by its graft dir.
  std::size_t from_a = 0;
  for (const MetaOp& op : mixed.ops) {
    const std::string path = mixed.tree.full_path(op.target);
    ASSERT_TRUE(path.rfind("/mix0/", 0) == 0 || path.rfind("/mix1/", 0) == 0)
        << path;
    if (path.rfind("/mix0/", 0) == 0) ++from_a;
  }
  EXPECT_EQ(from_a, a.ops.size());
  // Each input node is copied right after its graft point: it keeps its
  // kind, sits one level deeper and hangs under its own parent's copy.
  const auto expect_grafted = [&mixed](const Trace& in, fsns::NodeId graft) {
    for (fsns::NodeId id = 1; id < in.tree.size(); ++id) {
      EXPECT_EQ(mixed.tree.is_dir(graft + id), in.tree.is_dir(id));
      EXPECT_EQ(mixed.tree.depth(graft + id), in.tree.depth(id) + 1);
      EXPECT_EQ(mixed.tree.parent(graft + id), graft + in.tree.parent(id));
    }
  };
  expect_grafted(a, 1);
  expect_grafted(b, static_cast<fsns::NodeId>(a.tree.size() + 1));
  // Per-stream op order is preserved.
  std::vector<fsns::OpType> a_types;
  for (const MetaOp& op : mixed.ops) {
    if (mixed.tree.full_path(op.target).rfind("/mix0/", 0) == 0) {
      a_types.push_back(op.type);
    }
  }
  ASSERT_EQ(a_types.size(), a.ops.size());
  for (std::size_t i = 0; i < a_types.size(); ++i) {
    EXPECT_EQ(a_types[i], a.ops[i].type);
  }
}

TEST(TraceMixer, DeterministicAndHandlesEmpty) {
  TraceRwConfig rw;
  rw.ops = 300;
  rw.projects = 2;
  rw.modules_per_project = 2;
  rw.sources_per_module = 4;
  rw.headers_shared = 10;
  const Trace a = make_trace_rw(rw);
  const Trace m1 = interleave_traces({&a, &a}, 5);
  const Trace m2 = interleave_traces({&a, &a}, 5);
  ASSERT_EQ(m1.ops.size(), m2.ops.size());
  for (std::size_t i = 0; i < m1.ops.size(); ++i) {
    EXPECT_EQ(m1.ops[i].target, m2.ops[i].target);
  }
  const Trace empty = interleave_traces({});
  EXPECT_TRUE(empty.ops.empty());
  EXPECT_EQ(empty.tree.size(), 1u);
}

// ------------------------------------------------- timed workload families --

std::string fingerprint(const Trace& t) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  auto mix = [&](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  for (const MetaOp& op : t.ops) {
    mix(static_cast<std::uint64_t>(op.type));
    mix(op.target);
    mix(op.aux);
    mix(op.data_bytes);
  }
  for (sim::SimTime at : t.arrivals) mix(static_cast<std::uint64_t>(at));
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

void expect_timed_and_monotone(const Trace& t, std::uint64_t ops) {
  EXPECT_EQ(t.ops.size(), ops);
  ASSERT_TRUE(t.timed());
  ASSERT_EQ(t.arrivals.size(), t.ops.size());
  EXPECT_TRUE(std::is_sorted(t.arrivals.begin(), t.arrivals.end()));
  for (const MetaOp& op : t.ops) ASSERT_LT(op.target, t.tree.size());
}

TEST(TraceFalcon, ReadHeavyPipelineWithNativeTimestamps) {
  TraceFalconConfig cfg;
  cfg.ops = 40'000;
  const Trace t = make_trace_falcon(cfg);
  EXPECT_EQ(t.name, "trace-falcon");
  expect_timed_and_monotone(t, cfg.ops);
  const TraceSummary s = summarize(t);
  // DL data pipeline: scan storms + shuffled reads dominate, checkpoints
  // contribute the only writes.
  EXPECT_LT(s.write_fraction, 0.30);
  EXPECT_GT(s.op_counts[static_cast<int>(OpType::kReaddir)], 0u);
  EXPECT_GT(s.op_counts[static_cast<int>(OpType::kStat)],
            s.op_counts[static_cast<int>(OpType::kCreate)]);
}

TEST(TraceFalcon, BarriersLeaveLargeGapsInTheArrivalProcess) {
  TraceFalconConfig cfg;
  cfg.ops = 40'000;
  const Trace t = make_trace_falcon(cfg);
  std::vector<sim::SimTime> gaps;
  gaps.reserve(t.arrivals.size() - 1);
  for (std::size_t i = 1; i < t.arrivals.size(); ++i) {
    gaps.push_back(t.arrivals[i] - t.arrivals[i - 1]);
  }
  std::vector<sim::SimTime> sorted = gaps;
  std::sort(sorted.begin(), sorted.end());
  const sim::SimTime median = sorted[sorted.size() / 2];
  const sim::SimTime widest = sorted.back();
  // The 5 ms epoch barriers dwarf the per-op service gaps.
  EXPECT_GE(widest, sim::millis(5));
  EXPECT_GE(widest, 20 * std::max<sim::SimTime>(1, median));
}

TEST(TraceMidas, WriteHeavyBurstsWithNativeTimestamps) {
  TraceMidasConfig cfg;
  cfg.ops = 40'000;
  const Trace t = make_trace_midas(cfg);
  EXPECT_EQ(t.name, "trace-midas");
  expect_timed_and_monotone(t, cfg.ops);
  const TraceSummary s = summarize(t);
  // HPC burst: job storms are create/unlink-heavy.
  EXPECT_GT(s.write_fraction, 0.50);
  EXPECT_GT(s.op_counts[static_cast<int>(OpType::kCreate)], 0u);
  EXPECT_GT(s.op_counts[static_cast<int>(OpType::kReaddir)], 0u);
}

TEST(TraceMidas, OnOffLoadShowsUpAsRateContrast) {
  TraceMidasConfig cfg;
  cfg.ops = 40'000;
  const Trace t = make_trace_midas(cfg);
  // Background segments run at base_rate, storms at burst_rate (20x): the
  // gap distribution must be strongly bimodal — the widest decile of gaps
  // is far wider than the median.
  std::vector<sim::SimTime> gaps;
  for (std::size_t i = 1; i < t.arrivals.size(); ++i) {
    gaps.push_back(t.arrivals[i] - t.arrivals[i - 1]);
  }
  std::sort(gaps.begin(), gaps.end());
  const sim::SimTime median = gaps[gaps.size() / 2];
  const sim::SimTime p90 = gaps[gaps.size() * 9 / 10];
  EXPECT_GE(p90, 5 * std::max<sim::SimTime>(1, median));
}

TEST(TraceFamilies, DeterministicPerSeed) {
  TraceFalconConfig f;
  f.ops = 20'000;
  EXPECT_EQ(fingerprint(make_trace_falcon(f)),
            fingerprint(make_trace_falcon(f)));
  TraceFalconConfig f2 = f;
  f2.seed += 1;
  EXPECT_NE(fingerprint(make_trace_falcon(f)),
            fingerprint(make_trace_falcon(f2)));

  TraceMidasConfig m;
  m.ops = 20'000;
  EXPECT_EQ(fingerprint(make_trace_midas(m)),
            fingerprint(make_trace_midas(m)));
  TraceMidasConfig m2 = m;
  m2.seed += 1;
  EXPECT_NE(fingerprint(make_trace_midas(m)),
            fingerprint(make_trace_midas(m2)));
}

TEST(TraceFamilies, MakeTraceNamesEveryFamily) {
  // The one name -> generator table the tools share: every family sets
  // the seed, the sized ones the op count too (mdtest's size is its own).
  TraceRwConfig rw;
  rw.seed = 3;
  rw.ops = 2'000;
  TraceRoConfig ro;
  ro.seed = 3;
  ro.ops = 2'000;
  TraceWiConfig wi;
  wi.seed = 3;
  wi.ops = 2'000;
  TraceMdtestConfig mdtest;
  mdtest.seed = 3;
  TraceFalconConfig falcon;
  falcon.seed = 3;
  falcon.ops = 2'000;
  TraceMidasConfig midas;
  midas.seed = 3;
  midas.ops = 2'000;
  const std::map<std::string_view, Trace> direct = {
      {"rw", make_trace_rw(rw)},
      {"ro", make_trace_ro(ro)},
      {"wi", make_trace_wi(wi)},
      {"web", make_trace_web_motivation(3, 2'000)},
      {"mdtest", make_trace_mdtest(mdtest)},
      {"falcon", make_trace_falcon(falcon)},
      {"midas", make_trace_midas(midas)}};
  ASSERT_EQ(direct.size(), kTraceFamilies.size());
  for (const std::string_view family : kTraceFamilies) {
    auto made = make_trace(family, 3, 2'000);
    ASSERT_TRUE(made.is_ok()) << family << ": " << made.status().to_string();
    ASSERT_EQ(direct.count(family), 1u) << family;
    EXPECT_FALSE(made.value().ops.empty()) << family;
    EXPECT_EQ(fingerprint(made.value()), fingerprint(direct.at(family)))
        << family;
    EXPECT_EQ(made.value().tree.size(), direct.at(family).tree.size())
        << family;
  }
  auto unknown = make_trace("bogus", 3, 2'000);
  ASSERT_FALSE(unknown.is_ok());
  EXPECT_EQ(unknown.status().code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(unknown.status().to_string().find("bogus"), std::string::npos);
}

TEST(TraceFamilies, AncestorBufferMatchesTheVectorForm) {
  // One buffer serves every node of every family, so a chain shorter than
  // the one before it must not keep the longer chain's tail.
  std::vector<fsns::NodeId> chain;
  for (const std::string_view family : kTraceFamilies) {
    auto made = make_trace(family, 1, 2'000);
    ASSERT_TRUE(made.is_ok()) << family;
    const fsns::DirTree& tree = made.value().tree;
    for (fsns::NodeId id = 0; id < tree.size(); ++id) {
      tree.ancestors(id, chain);
      ASSERT_EQ(chain, tree.ancestors(id)) << family << ' ' << id;
    }
  }
}

// ------------------------------------------------ timed trace (de)serialise --

TEST(TraceIo, V2RoundtripPreservesArrivalTimestamps) {
  TraceFalconConfig cfg;
  cfg.ops = 5'000;
  const Trace t = make_trace_falcon(cfg);
  ASSERT_TRUE(t.timed());
  const std::string path = ::testing::TempDir() + "/origami_trace_timed.bin";
  ASSERT_TRUE(save_trace(t, path).is_ok());
  auto loaded = load_trace(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  const Trace& back = loaded.value();
  ASSERT_TRUE(back.timed());
  EXPECT_EQ(back.arrivals, t.arrivals);
  EXPECT_EQ(fingerprint(back), fingerprint(t));
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsMismatchedArrivalTable) {
  Trace t;
  t.name = "bad-arrivals";
  const fsns::NodeId f = t.tree.add_file(0, "f");
  t.tree.finalize();
  t.ops.assign(3, MetaOp{OpType::kStat, f, 0, 0});
  t.arrivals = {10, 20};  // 2 arrivals for 3 ops
  const std::string path = ::testing::TempDir() + "/origami_trace_mismatch.bin";
  ASSERT_TRUE(save_trace(t, path).is_ok());
  auto loaded = load_trace(path);
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_NE(loaded.status().to_string().find("arrival table size mismatch"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsDecreasingArrivalTimestamps) {
  Trace t;
  t.name = "time-travel";
  const fsns::NodeId f = t.tree.add_file(0, "f");
  t.tree.finalize();
  t.ops.assign(3, MetaOp{OpType::kStat, f, 0, 0});
  t.arrivals = {5, 3, 9};
  const std::string path = ::testing::TempDir() + "/origami_trace_decr.bin";
  ASSERT_TRUE(save_trace(t, path).is_ok());
  auto loaded = load_trace(path);
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_NE(loaded.status().to_string().find("invalid arrival record"),
            std::string::npos);
  std::remove(path.c_str());
}

// ------------------------------------------------ hand-made trace files --

/// Writes a trace file field by field, so a test can hand-craft what
/// save_trace never writes. The file is named after the running test, so
/// test cases run as parallel processes never share one; it is removed
/// with the writer.
class RawTraceFile {
 public:
  RawTraceFile()
      : path_(::testing::TempDir() + "/origami_" + current_test() + ".trace"),
        out_(path_, std::ios::binary | std::ios::trunc) {}
  ~RawTraceFile() { std::remove(path_.c_str()); }

  RawTraceFile& u8(std::uint8_t v) { return put(v); }
  RawTraceFile& u32(std::uint32_t v) { return put(v); }
  RawTraceFile& u64(std::uint64_t v) { return put(v); }
  RawTraceFile& str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.write(s.data(), static_cast<std::streamsize>(s.size()));
    return *this;
  }
  /// Magic, version and trace name.
  RawTraceFile& header(std::uint32_t version) {
    return u32(0x4f524754).u32(version).str("handmade");
  }
  RawTraceFile& node(std::uint32_t parent, bool is_dir,
                     const std::string& name) {
    return u32(parent).u8(is_dir ? 1 : 0).str(name);
  }

  common::Result<Trace> load() {
    out_.close();
    return load_trace(path_);
  }

 private:
  template <typename T>
  RawTraceFile& put(T v) {
    out_.write(reinterpret_cast<const char*>(&v), sizeof v);
    return *this;
  }

  static std::string current_test() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    return std::string(info->test_suite_name()) + "." + info->name();
  }

  std::string path_;
  std::ofstream out_;
};

struct RawNode {
  std::uint32_t parent;
  bool is_dir;
  std::string name;
};

/// Loads a version-1 file holding `nodes` (ids from 1; the root is
/// implicit) and no ops.
common::Result<Trace> load_tree(const std::vector<RawNode>& nodes) {
  RawTraceFile file;
  file.header(1).u64(nodes.size() + 1);
  for (const RawNode& n : nodes) file.node(n.parent, n.is_dir, n.name);
  return file.u64(0).load();
}

void expect_corruption(const common::Result<Trace>& loaded,
                       const std::string& why) {
  ASSERT_FALSE(loaded.is_ok()) << "loaded; want: " << why;
  EXPECT_EQ(loaded.status().code(), common::StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find(why), std::string::npos)
      << loaded.status().to_string();
}

TEST(TraceIo, LoadsVersion1FilesWithoutArrivalTable) {
  // Handcraft a version-1 stream: identical layout up to the op table, no
  // arrival section at the end. Old trace files must keep loading.
  RawTraceFile file;
  file.u32(0x4f524754);  // "ORGT"
  file.u32(1);           // version 1: no arrival table
  file.str("legacy-v1");
  file.u64(2);               // nodes: root + one file
  file.node(0, false, "f");  // node 1: a file under the root
  file.u64(2);               // two ops targeting node 1
  for (int i = 0; i < 2; ++i) {
    file.u8(static_cast<std::uint8_t>(OpType::kStat));
    file.u32(1);  // target
    file.u32(0);  // aux
    file.u32(0);  // data_bytes
  }
  auto loaded = file.load();
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  const Trace& t = loaded.value();
  EXPECT_EQ(t.name, "legacy-v1");
  EXPECT_EQ(t.ops.size(), 2u);
  EXPECT_TRUE(t.arrivals.empty());
  EXPECT_FALSE(t.timed());
}

// ------------------------------------------------ malformed trace files --

TEST(TraceIo, RejectsNodeUnderFile) {
  // Node 2 sits under file node 1: no path reaches it.
  expect_corruption(load_tree({{0, false, "f"}, {1, false, "g"}}),
                    "node 2 has a file as its parent");
}

TEST(TraceIo, RejectsEmptyName) {
  expect_corruption(load_tree({{0, true, "d"}, {1, false, ""}}),
                    "node 2 has a name no path spells");
}

TEST(TraceIo, RejectsDotName) {
  expect_corruption(load_tree({{0, true, "."}}),
                    "node 1 has a name no path spells");
}

TEST(TraceIo, RejectsSlashInName) {
  expect_corruption(load_tree({{0, true, "d"}, {0, false, "d/f"}}),
                    "node 2 has a name no path spells");
}

TEST(TraceIo, RejectsRepeatedSiblingName) {
  // One name under two parents is fine; twice under one parent is not.
  ASSERT_TRUE(
      load_tree({{0, true, "a"}, {1, false, "x"}, {0, false, "x"}}).is_ok());
  expect_corruption(
      load_tree({{0, true, "a"}, {1, false, "x"}, {0, false, "x"},
                 {1, true, "x"}}),
      "node 4 repeats a sibling's name");
}

TEST(TraceIo, RejectsOpCountPastEndOfFile) {
  RawTraceFile file;
  file.header(1).u64(2).node(0, false, "f").u64(std::uint64_t{1} << 60);
  expect_corruption(file.load(), "op table runs past the end");
}

TEST(TraceIo, RejectsArrivalCountPastEndOfFile) {
  RawTraceFile file;
  file.header(2).u64(1).u64(0).u64(std::uint64_t{1} << 60);
  expect_corruption(file.load(), "arrival table runs past the end");
}

TEST(TraceIo, RejectsNameLengthPastEndOfFile) {
  // A 4 GiB name in a few-byte file: refused before anything is sized.
  RawTraceFile file;
  file.u32(0x4f524754).u32(1).u32(0xffffffffu);
  expect_corruption(file.load(), "truncated trace header");
}

TEST(TraceIo, EveryGeneratorFamilyRoundTrips) {
  // Every generated tree passes the loader's tree checks, so every node's
  // full path resolves back to that node.
  TraceRwConfig rw;
  rw.projects = 4;
  rw.modules_per_project = 3;
  rw.sources_per_module = 8;
  rw.headers_shared = 40;
  rw.ops = 2'000;
  TraceRoConfig ro;
  ro.dirs = 2'000;
  ro.files = 8'000;
  ro.ops = 2'000;
  TraceWiConfig wi;
  wi.tenants = 4;
  wi.dirs_per_tenant = 40;
  wi.ops = 2'000;
  TraceMdtestConfig mdtest;
  mdtest.ranks = 4;
  mdtest.files_per_rank = 20;
  TraceFalconConfig falcon;
  falcon.shards_per_dataset = 4;
  falcon.files_per_shard = 20;
  falcon.ops = 2'000;
  TraceMidasConfig midas;
  midas.jobs = 3;
  midas.ranks_per_job = 4;
  midas.files_per_rank = 10;
  midas.ops = 2'000;
  const Trace a = make_trace_rw(rw);
  const Trace b = make_trace_falcon(falcon);
  std::vector<Trace> traces;
  traces.push_back(make_trace_rw(rw));
  traces.push_back(make_trace_ro(ro));
  traces.push_back(make_trace_wi(wi));
  traces.push_back(make_trace_web_motivation(7, 2'000));
  traces.push_back(make_trace_mdtest(mdtest));
  traces.push_back(make_trace_falcon(falcon));
  traces.push_back(make_trace_midas(midas));
  traces.push_back(interleave_traces({&a, &b}));

  const std::string path = ::testing::TempDir() + "/origami_trace_family.bin";
  for (const Trace& original : traces) {
    ASSERT_TRUE(save_trace(original, path).is_ok()) << original.name;
    auto loaded = load_trace(path);
    ASSERT_TRUE(loaded.is_ok())
        << original.name << ": " << loaded.status().to_string();
    const Trace& t = loaded.value();
    ASSERT_EQ(t.tree.size(), original.tree.size()) << original.name;
    const fsns::PathResolver resolver(t.tree);
    for (std::size_t i = 0; i < t.tree.size(); ++i) {
      const auto id = static_cast<fsns::NodeId>(i);
      ASSERT_EQ(t.tree.node(id).name, original.tree.node(id).name);
      ASSERT_EQ(t.tree.parent(id), original.tree.parent(id));
      ASSERT_EQ(t.tree.depth(id), original.tree.depth(id));
      ASSERT_EQ(t.tree.is_dir(id), original.tree.is_dir(id));
      ASSERT_EQ(resolver.resolve(t.tree.full_path(id)), id)
          << original.name << ' ' << t.tree.full_path(id);
    }
    EXPECT_EQ(fingerprint(t), fingerprint(original)) << original.name;
  }
  std::remove(path.c_str());
}

// ----------------------------------------- arrival-process statistics --

std::unique_ptr<ArrivalPolicy> make_arrival(const std::string& spec,
                                            const ArrivalContext& ctx = {}) {
  auto made = ArrivalRegistry::builtin().make(spec, ctx);
  EXPECT_TRUE(made.is_ok()) << made.status().to_string();
  return std::move(made).value();
}

/// Drives an open-loop policy the way the engines do: chained absolute
/// arrival times, one call per op index.
std::vector<sim::SimTime> drive(ArrivalPolicy& p, std::uint64_t n) {
  common::Xoshiro256 engine_rng(42);
  std::vector<sim::SimTime> at;
  at.reserve(n);
  at.push_back(p.first_arrival());
  for (std::uint64_t i = 1; i < n; ++i) {
    at.push_back(p.next_arrival(i, at.back(), engine_rng));
  }
  return at;
}

TEST(BurstyArrivalStats, OverdispersedAboveBaseRateAndSeeded) {
  // Short period so the sample spans many diurnal cycles: rate 50k, 100 ms
  // period, 10 ms spikes at 20x with probability 1/2 -> expected average
  // envelope = 50k * (1 + 0.5*0.1*19) ~ 97.5k ops/s.
  const std::string spec =
      "bursty:rate=50000,period-ms=100,amp=0.9,spike-prob=0.5,"
      "spike-mult=20,spike-ms=10,seed=7";
  auto p = make_arrival(spec);
  const std::uint64_t n = 200'000;
  const std::vector<sim::SimTime> at = drive(*p, n);

  ASSERT_TRUE(std::is_sorted(at.begin(), at.end()));
  for (std::size_t i = 1; i < at.size(); ++i) ASSERT_GT(at[i], at[i - 1]);

  const double span_s =
      static_cast<double>(at.back() - at.front()) / sim::kSecond;
  const double mean_rate = static_cast<double>(n - 1) / span_s;
  // Long-run mean sits between the base rate and the spike envelope.
  EXPECT_GT(mean_rate, 50'000.0 * 1.2);
  EXPECT_LT(mean_rate, 50'000.0 * 2.6);

  // Inter-arrival overdispersion: a homogeneous Poisson process has
  // CV = 1; the sinusoid + spike mixture must push it well above.
  double mean_gap = 0.0;
  for (std::size_t i = 1; i < at.size(); ++i) {
    mean_gap += static_cast<double>(at[i] - at[i - 1]);
  }
  mean_gap /= static_cast<double>(n - 1);
  double var = 0.0;
  for (std::size_t i = 1; i < at.size(); ++i) {
    const double d = static_cast<double>(at[i] - at[i - 1]) - mean_gap;
    var += d * d;
  }
  var /= static_cast<double>(n - 2);
  const double cv = std::sqrt(var) / mean_gap;
  EXPECT_GT(cv, 1.1);

  // The process owns its randomness: same seed -> identical sequence
  // (regardless of the engine stream), different seed -> different.
  auto p_again = make_arrival(spec);
  EXPECT_EQ(drive(*p_again, 5'000),
            std::vector<sim::SimTime>(at.begin(), at.begin() + 5'000));
  auto p_other = make_arrival(
      "bursty:rate=50000,period-ms=100,amp=0.9,spike-prob=0.5,"
      "spike-mult=20,spike-ms=10,seed=8");
  EXPECT_NE(drive(*p_other, 5'000),
            std::vector<sim::SimTime>(at.begin(), at.begin() + 5'000));
}

TEST(TenantArrivalStats, PerTenantTokenBucketHoldsInEveryWindow) {
  const std::uint32_t tenants = 4;
  const std::uint64_t rate = 1'000;  // ops/s per tenant
  const std::uint64_t burst = 4;
  auto p = make_arrival("tenant:tenants=4,rate=1000,burst=4");
  const std::uint64_t n = 16'000;
  const std::vector<sim::SimTime> at = drive(*p, n);
  ASSERT_TRUE(std::is_sorted(at.begin(), at.end()));

  std::vector<std::vector<sim::SimTime>> lanes(tenants);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint32_t c = p->client_of(i);
    EXPECT_EQ(c, static_cast<std::uint32_t>(i % tenants));  // round-robin
    lanes[c].push_back(at[i]);
  }
  // Token bucket invariant: any window of one second admits at most
  // rate + burst ops per tenant, i.e. the (rate+burst)-th op after any op
  // lands at least ~1 s later (small slack for integer rounding).
  const auto window_ops = static_cast<std::size_t>(rate + burst);
  for (const auto& lane : lanes) {
    ASSERT_GT(lane.size(), window_ops);
    for (std::size_t i = 0; i + window_ops < lane.size(); ++i) {
      EXPECT_GE(lane[i + window_ops] - lane[i],
                static_cast<sim::SimTime>(0.98 * sim::kSecond));
    }
  }
}

TEST(TraceArrivalStats, ReplaysNativeTimestampsExactly) {
  TraceFalconConfig cfg;
  cfg.ops = 4'000;
  const Trace t = make_trace_falcon(cfg);
  ArrivalContext ctx;
  ctx.trace = &t;
  ctx.clients = 1;
  auto p = make_arrival("trace", ctx);
  common::Xoshiro256 engine_rng(42);
  sim::SimTime prev = p->first_arrival();
  EXPECT_EQ(prev, t.arrivals.front());
  for (std::uint64_t i = 1; i < t.ops.size(); ++i) {
    prev = p->next_arrival(i, prev, engine_rng);
    EXPECT_EQ(prev, t.arrivals[i]) << "op " << i;
  }
}

TEST(TraceArrivalStats, SpeedScalesTheTimelineAndWrapPreservesGaps) {
  TraceFalconConfig cfg;
  cfg.ops = 2'000;
  const Trace t = make_trace_falcon(cfg);
  ArrivalContext ctx;
  ctx.trace = &t;
  ctx.clients = 1;

  auto fast = make_arrival("trace:speed=2", ctx);
  common::Xoshiro256 engine_rng(42);
  sim::SimTime prev = fast->first_arrival();
  EXPECT_EQ(prev, static_cast<sim::SimTime>(
                      static_cast<double>(t.arrivals.front()) / 2.0));
  for (std::uint64_t i = 1; i < t.ops.size(); ++i) {
    prev = fast->next_arrival(i, prev, engine_rng);
    EXPECT_EQ(prev, static_cast<sim::SimTime>(
                        static_cast<double>(t.arrivals[i]) / 2.0))
        << "op " << i;
  }

  // Looping past the end restarts the timeline one tick after the last
  // arrival of the previous pass, preserving every relative gap.
  auto looped = make_arrival("trace", ctx);
  const std::uint64_t n = t.ops.size();
  sim::SimTime cur = looped->first_arrival();
  for (std::uint64_t i = 1; i < n; ++i) {
    cur = looped->next_arrival(i, cur, engine_rng);
  }
  const sim::SimTime last_first_pass = cur;
  const sim::SimTime second_pass_start =
      looped->next_arrival(n, last_first_pass, engine_rng);
  EXPECT_EQ(second_pass_start, last_first_pass + 1);
  cur = second_pass_start;
  for (std::uint64_t j = 1; j < n; ++j) {
    cur = looped->next_arrival(n + j, cur, engine_rng);
    EXPECT_EQ(cur - second_pass_start, t.arrivals[j] - t.arrivals[0])
        << "wrapped op " << j;
  }
}

}  // namespace
}  // namespace origami::wl
