// Unit tests for the origami::common substrate: status/result types, RNG,
// Zipf/alias sampling, hashing, histograms, CSV, thread pool, MPMC queue.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "origami/common/csv.hpp"
#include "origami/common/hash.hpp"
#include "origami/common/histogram.hpp"
#include "origami/common/log.hpp"
#include "origami/common/rng.hpp"
#include "origami/common/spec.hpp"
#include "origami/common/status.hpp"
#include "origami/common/thread_pool.hpp"
#include "origami/common/zipf.hpp"

namespace origami::common {
namespace {

// ---------------------------------------------------------------- Status --

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  const Status s = Status::not_found("missing inode");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing inode");
  EXPECT_EQ(s.to_string(), "NOT_FOUND: missing inode");
}

TEST(Status, EqualityComparesCodesOnly) {
  EXPECT_EQ(Status::internal("a"), Status::internal("b"));
  EXPECT_FALSE(Status::internal("a") == Status::corruption("a"));
}

TEST(Status, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_NE(to_string(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
  EXPECT_TRUE(r.status().is_ok());
}

TEST(Result, HoldsError) {
  Result<int> r(Status::unavailable("down"));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(Result, MoveOutValue) {
  Result<std::string> r(std::string(1000, 'x'));
  std::string v = std::move(r).value();
  EXPECT_EQ(v.size(), 1000u);
}

// ------------------------------------------------------------------- RNG --

TEST(Rng, DeterministicAcrossInstances) {
  Xoshiro256 a(123);
  Xoshiro256 b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformBounds) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformIsRoughlyUniform) {
  Xoshiro256 rng(99);
  std::array<int, 10> buckets{};
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++buckets[rng.uniform(10)];
  for (int b : buckets) {
    EXPECT_NEAR(b, kDraws / 10, kDraws / 10 * 0.1);
  }
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Xoshiro256 rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.uniform_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
  Xoshiro256 rng(5);
  WelfordStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.03);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.03);
}

TEST(Rng, ExponentialMean) {
  Xoshiro256 rng(6);
  double sum = 0;
  for (int i = 0; i < 50000; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / 50000, 0.5, 0.02);
}

TEST(Rng, ForkProducesIndependentStream) {
  Xoshiro256 a(11);
  Xoshiro256 b = a.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

// ------------------------------------------------------------------ Zipf --

class ZipfShape : public ::testing::TestWithParam<double> {};

TEST_P(ZipfShape, RankZeroIsMostPopularAndInRange) {
  const double theta = GetParam();
  ZipfDistribution zipf(1000, theta);
  Xoshiro256 rng(42);
  std::vector<int> hits(1000, 0);
  for (int i = 0; i < 200000; ++i) {
    const auto r = zipf(rng);
    ASSERT_LT(r, 1000u);
    ++hits[r];
  }
  // Rank 0 must dominate for skewed thetas.
  if (theta >= 0.8) {
    EXPECT_GT(hits[0], hits[10]);
    EXPECT_GT(hits[0], hits[999] * 5);
  }
  // Monotone-ish decay over decades (theta 0 is uniform — no decay).
  if (theta >= 0.5) {
    EXPECT_GE(hits[0] + hits[1] + hits[2], hits[500] + hits[501] + hits[502]);
  }
}

INSTANTIATE_TEST_SUITE_P(Thetas, ZipfShape,
                         ::testing::Values(0.0, 0.5, 0.8, 0.99, 1.0, 1.2));

TEST(Zipf, ThetaZeroIsUniform) {
  ZipfDistribution zipf(100, 0.0);
  Xoshiro256 rng(1);
  std::vector<int> hits(100, 0);
  for (int i = 0; i < 100000; ++i) ++hits[zipf(rng)];
  for (int h : hits) EXPECT_NEAR(h, 1000, 250);
}

TEST(Zipf, SkewMatchesTheory) {
  // For theta=1, P(rank 0) ~= 1/H_n; with n=1000, H_n ~= 7.49.
  ZipfDistribution zipf(1000, 1.0);
  Xoshiro256 rng(2);
  int zero = 0;
  constexpr int kDraws = 300000;
  for (int i = 0; i < kDraws; ++i) {
    if (zipf(rng) == 0) ++zero;
  }
  EXPECT_NEAR(static_cast<double>(zero) / kDraws, 1.0 / 7.49, 0.02);
}

TEST(Zipf, SingleElement) {
  ZipfDistribution zipf(1, 0.9);
  Xoshiro256 rng(1);
  EXPECT_EQ(zipf(rng), 0u);
}

TEST(Zipf, RejectsInvalidArguments) {
  EXPECT_THROW(ZipfDistribution(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfDistribution(10, -0.1), std::invalid_argument);
}

TEST(AliasTable, MatchesWeights) {
  AliasTable table({1.0, 2.0, 4.0, 1.0});
  Xoshiro256 rng(9);
  std::array<int, 4> hits{};
  constexpr int kDraws = 160000;
  for (int i = 0; i < kDraws; ++i) ++hits[table(rng)];
  EXPECT_NEAR(hits[0], kDraws / 8, kDraws / 8 * 0.15);
  EXPECT_NEAR(hits[1], kDraws / 4, kDraws / 4 * 0.1);
  EXPECT_NEAR(hits[2], kDraws / 2, kDraws / 2 * 0.1);
}

TEST(AliasTable, ZeroWeightNeverSampled) {
  AliasTable table({0.0, 1.0, 0.0});
  Xoshiro256 rng(4);
  for (int i = 0; i < 10000; ++i) EXPECT_EQ(table(rng), 1u);
}

// ------------------------------------------------------------------ Hash --

TEST(Hash, Fnv1aKnownValues) {
  // Standard FNV-1a test vectors.
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ULL);
}

TEST(Hash, Mix64Bijective) {
  std::set<std::uint64_t> outs;
  for (std::uint64_t i = 0; i < 1000; ++i) outs.insert(mix64(i));
  EXPECT_EQ(outs.size(), 1000u);
}

TEST(Hash, CombineOrderSensitive) {
  EXPECT_NE(hash_combine(hash_combine(0, 1), 2),
            hash_combine(hash_combine(0, 2), 1));
}

// ------------------------------------------------------------- Histogram --

TEST(Welford, MeanVarianceMinMax) {
  WelfordStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Welford, MergeEqualsCombined) {
  WelfordStats a;
  WelfordStats b;
  WelfordStats all;
  Xoshiro256 rng(12);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal() * 3 + 1;
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  // Merge reorders the additions, so only near-equality holds here; the
  // bit-exact guarantee (next test) applies to a single add() stream.
  EXPECT_NEAR(a.sum(), all.sum(), 1e-9 * std::abs(all.sum()));
}

TEST(Welford, SumIsExactOverLongMixedMagnitudeRuns) {
  // Regression: sum() used to be reconstructed as mean * count, and the
  // incremental mean update rounds on every add — over millions of
  // mixed-magnitude samples the reconstructed total drifts from the true
  // sum. The exact running sum must match naive left-to-right summation
  // bit for bit.
  WelfordStats s;
  Xoshiro256 rng(7);
  double naive = 0.0;
  constexpr int kSamples = 10'000'000;
  for (int i = 0; i < kSamples; ++i) {
    // Magnitudes spanning ~9 decades, alternating sign: the worst case for
    // incremental-mean reconstruction.
    const double mag = std::pow(10.0, static_cast<double>(i % 10) - 3.0);
    const double x = (i % 2 == 0 ? 1.0 : -1.0) * rng.uniform_double() * mag +
                     rng.uniform_double();
    s.add(x);
    naive += x;
  }
  EXPECT_EQ(s.count(), static_cast<std::uint64_t>(kSamples));
  EXPECT_DOUBLE_EQ(s.sum(), naive);
  // The old reconstruction is measurably off on this stream; guard that the
  // exact sum is genuinely closer to the truth than mean*count.
  const double reconstructed = s.mean() * static_cast<double>(s.count());
  EXPECT_LE(std::abs(s.sum() - naive), std::abs(reconstructed - naive));
}

TEST(LatencyHistogram, ExactForSmallValues) {
  LatencyHistogram h;
  for (std::uint64_t v = 0; v < 64; ++v) h.add(v);
  EXPECT_EQ(h.count(), 64u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 63u);
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.quantile(1.0), 63u);
}

TEST(LatencyHistogram, QuantileAccuracyWithinRelativeError) {
  LatencyHistogram h;
  Xoshiro256 rng(77);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 100000; ++i) {
    const auto v = static_cast<std::uint64_t>(rng.exponential(1e-6));
    values.push_back(v);
    h.add(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.5, 0.9, 0.99}) {
    const auto exact = values[static_cast<std::size_t>(
        q * static_cast<double>(values.size() - 1))];
    const auto approx = h.quantile(q);
    EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact),
                static_cast<double>(exact) * 0.05 + 2.0)
        << "q=" << q;
  }
}

TEST(LatencyHistogram, MeanMatches) {
  LatencyHistogram h;
  std::uint64_t sum = 0;
  for (std::uint64_t v = 1; v <= 1000; ++v) {
    h.add(v * 1000);
    sum += v * 1000;
  }
  EXPECT_DOUBLE_EQ(h.mean(), static_cast<double>(sum) / 1000.0);
}

TEST(LatencyHistogram, MergeAndClear) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.add(100);
  b.add(10000, 3);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.min(), 100u);
  a.clear();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.quantile(0.5), 0u);
}

// ------------------------------------------------------------------- CSV --

TEST(Csv, WritesEscapedRows) {
  const std::string path = ::testing::TempDir() + "/origami_csv_test.csv";
  {
    CsvWriter w(path);
    ASSERT_TRUE(w.is_open());
    w.header({"name", "value"});
    w.field("plain").field(std::int64_t{-3}).endrow();
    w.field("has,comma").field(2.5).endrow();
    w.field("has\"quote").field(std::uint64_t{7}).endrow();
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "name,value");
  std::getline(in, line);
  EXPECT_EQ(line, "plain,-3");
  std::getline(in, line);
  EXPECT_EQ(line, "\"has,comma\",2.5");
  std::getline(in, line);
  EXPECT_EQ(line, "\"has\"\"quote\",7");
  std::remove(path.c_str());
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string host_json() {
  return "{\"cores\": " +
         std::to_string(std::max(1u, std::thread::hardware_concurrency())) +
         "}";
}

TEST(Report, HoldsTheCsvRowsUnderFourKeys) {
  const std::string csv_path = ::testing::TempDir() + "/origami_report.csv";
  const std::string json_path = ::testing::TempDir() + "/origami_report.json";
  CsvWriter w(csv_path);
  ASSERT_TRUE(w.is_open());
  w.header({"policy", "throughput_ops", "migrations"});
  w.field("c-hash").field(123456.789012345).field(std::uint64_t{7}).endrow();
  w.field("origami").field(1.0 / 3.0).field(-2).endrow();
  ASSERT_TRUE(w.close().is_ok());
  ASSERT_TRUE(
      write_report(json_path, "faceoff", {{"ops", 25'000}, {"smoke", true}}, w)
          .is_ok());

  EXPECT_EQ(slurp(csv_path),
            "policy,throughput_ops,migrations\n"
            "c-hash,123456.789,7\n"
            "origami,0.3333333333,-2\n");
  EXPECT_EQ(slurp(json_path),
            "{\n"
            "  \"bench\": \"faceoff\",\n"
            "  \"config\": {\"ops\": 25000, \"smoke\": true},\n"
            "  \"host\": " + host_json() + ",\n"
            "  \"results\": [\n"
            "    {\"policy\": \"c-hash\", \"throughput_ops\": 123456.789, "
            "\"migrations\": 7},\n"
            "    {\"policy\": \"origami\", \"throughput_ops\": 0.3333333333, "
            "\"migrations\": -2}\n"
            "  ]\n"
            "}\n");
  std::remove(csv_path.c_str());
  std::remove(json_path.c_str());
}

TEST(Report, EscapesStringsAndWritesNonFiniteAsNull) {
  const std::string json_path = ::testing::TempDir() + "/origami_escape.json";
  CsvWriter rows;  // no CSV file: the rows go only into the report
  rows.header({"name", "nan", "inf", "ninf"});
  rows.field("say \"hi\"\\ now\nthen\t")
      .field(std::nan(""))
      .field(HUGE_VAL)
      .field(-HUGE_VAL)
      .endrow();
  EXPECT_EQ(rows.rows()[0][1].text, "nan");
  EXPECT_EQ(rows.rows()[0][2].text, "inf");
  ASSERT_TRUE(write_report(json_path, "esc", {{"dir", "a\\b"}}, rows).is_ok());
  EXPECT_EQ(slurp(json_path),
            "{\n"
            "  \"bench\": \"esc\",\n"
            "  \"config\": {\"dir\": \"a\\\\b\"},\n"
            "  \"host\": " + host_json() + ",\n"
            "  \"results\": [\n"
            "    {\"name\": \"say \\\"hi\\\"\\\\ now\\nthen\\u0009\", "
            "\"nan\": null, \"inf\": null, \"ninf\": null}\n"
            "  ]\n"
            "}\n");
  std::remove(json_path.c_str());
}

TEST(Report, UnwritableOutputIsAnError) {
  const std::string missing = ::testing::TempDir() + "/no-such-dir/x";
  CsvWriter csv(missing + ".csv");
  EXPECT_FALSE(csv.is_open());
  CsvWriter rows;
  rows.header({"a"});
  rows.field(1).endrow();
  const Status s = write_report(missing + ".json", "x", {}, rows);
  ASSERT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find(missing + ".json"), std::string::npos);

  // A row narrower than the header has no well-formed report either.
  rows.field(2).field(3).endrow();
  EXPECT_FALSE(
      write_report(::testing::TempDir() + "/origami_ragged.json", "x", {},
                   rows)
          .is_ok());
}

// ----------------------------------------------------------- Thread pool --

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
  pool.submit([&] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  parallel_for(
      pool, hits.size(),
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
      },
      64);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  parallel_for(pool, 0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

// ---------------------------------------------------------- spec grammar --

// The policy and arrival spellings are pinned by PolicySpec.* and
// ArrivalSpec.*; these are the grammar's own cases.
TEST(SpecGrammar, ParsesNameAndParams) {
  auto bare = parse_spec("p");
  ASSERT_TRUE(bare.is_ok());
  EXPECT_EQ(bare.value().name, "p");
  EXPECT_TRUE(bare.value().params.empty());

  using Params = std::vector<std::pair<std::string, std::string>>;
  auto two = parse_spec("p:a=2.5,b=7");
  ASSERT_TRUE(two.is_ok());
  EXPECT_EQ(two.value().name, "p");
  EXPECT_EQ(two.value().params, (Params{{"a", "2.5"}, {"b", "7"}}));

  // Values are kept as written; the grammar does not read them.
  auto raw = parse_spec("p:a=,b= 1e3");
  ASSERT_TRUE(raw.is_ok());
  EXPECT_EQ(raw.value().params, (Params{{"a", ""}, {"b", " 1e3"}}));

  // Only the first '=' splits: the rest belongs to the value.
  auto eq = parse_spec("x:a=b=c");
  ASSERT_TRUE(eq.is_ok());
  EXPECT_EQ(eq.value().params, (Params{{"a", "b=c"}}));
}

TEST(SpecGrammar, RejectsMalformedSpecs) {
  for (const char* bad : {"", ":k=v", "x:novalue", "x:=3", "x:a=1,b",
                          "x:a=1,", "x:,a=1", "x:"}) {
    auto r = parse_spec(bad);
    EXPECT_FALSE(r.is_ok()) << "accepted malformed spec '" << bad << "'";
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

const std::vector<ParamDecl> kDecls = {
    {"a", "a real", "2.5", ParamKind::kReal},
    {"b", "an integer", "7", ParamKind::kInt},
};

Result<SpecValues> checked(std::string_view text) {
  auto spec = parse_spec(text);
  if (!spec.is_ok()) return spec.status();
  return check_spec(spec.value(), kDecls, "entry 'p'");
}

TEST(SpecGrammar, ReadsEachValueOnceByItsDeclaredKind) {
  auto values = checked("p:a=0.05,b=9223372036854775807");
  ASSERT_TRUE(values.is_ok()) << values.status().to_string();
  EXPECT_EQ(values.value().get_double("a", 0.0), 0.05);  // strtod's double
  EXPECT_EQ(values.value().get_int("b", 0), INT64_MAX);
  EXPECT_EQ(values.value().get_int("c", 42), 42);  // unset: the fallback

  auto empty = checked("p");
  ASSERT_TRUE(empty.is_ok());
  EXPECT_EQ(empty.value().get_double("a", 0.2), 0.2);

  // Reading a key as the other kind is a registry bug, not bad input.
  EXPECT_THROW((void)values.value().get_int("a", 0), std::bad_variant_access);
  EXPECT_THROW((void)values.value().get_double("b", 0), std::bad_variant_access);
}

TEST(SpecGrammar, IntegersArePlainDigitsWithinInt64) {
  for (const char* bad : {"1e3", "2.9", "-3", "+3", " 5", "5 ", "", "abc",
                          "0x10", "9223372036854775808"}) {
    auto r = checked(std::string("p:b=") + bad);
    ASSERT_FALSE(r.is_ok()) << "accepted b='" << bad << "'";
    EXPECT_NE(r.status().message().find("expected an integer"),
              std::string::npos)
        << r.status().to_string();
  }
  for (const auto& [text, value] :
       std::vector<std::pair<const char*, std::int64_t>>{
           {"0", 0}, {"007", 7}, {"1000", 1000}}) {
    auto r = checked(std::string("p:b=") + text);
    ASSERT_TRUE(r.is_ok()) << text << ": " << r.status().to_string();
    EXPECT_EQ(r.value().get_int("b", -1), value) << text;
  }
}

TEST(SpecGrammar, RealsAreWholeFiniteNumbers) {
  for (const char* bad : {"abc", "0.1x", "nan", "inf", "-inf", "1e999", "",
                          "1,5"}) {
    auto r = checked(std::string("p:a=") + bad);
    EXPECT_FALSE(r.is_ok()) << "accepted a='" << bad << "'";
  }
  for (const auto& [text, value] : std::vector<std::pair<const char*, double>>{
           {"1e-1", 0.1}, {"-3", -3.0}, {"1e3", 1000.0}, {"0.2", 0.2}}) {
    auto r = checked(std::string("p:a=") + text);
    ASSERT_TRUE(r.is_ok()) << text << ": " << r.status().to_string();
    EXPECT_EQ(r.value().get_double("a", 0.0), value) << text;
  }
}

TEST(SpecGrammar, EmbeddedNulCannotCutAValueShort) {
  const std::string int_nul("p:b=1\0x", 7);
  const std::string real_nul("p:a=2.5\0", 8);
  EXPECT_FALSE(checked(int_nul).is_ok());
  EXPECT_FALSE(checked(real_nul).is_ok());
  EXPECT_FALSE(parse_int(std::string_view("1\0", 2)).is_ok());
  EXPECT_FALSE(parse_real(std::string_view("1\0", 2)).is_ok());
}

TEST(SpecGrammar, RejectsUndeclaredAndRepeatedKeys) {
  auto unknown = checked("p:c=1");
  ASSERT_FALSE(unknown.is_ok());
  EXPECT_NE(unknown.status().message().find(
                "entry 'p' has no parameter 'c' (it takes: a, b)"),
            std::string::npos)
      << unknown.status().to_string();

  auto none = check_spec(parse_spec("q:a=1").value(), {}, "entry 'q'");
  ASSERT_FALSE(none.is_ok());
  EXPECT_NE(none.status().message().find("(it takes none)"),
            std::string::npos);

  auto twice = checked("p:b=1,b=2");
  ASSERT_FALSE(twice.is_ok());
  EXPECT_NE(twice.status().message().find("twice"), std::string::npos);
}

// ------------------------------------------------------------------- Log --

TEST(Log, LevelFiltering) {
  const LogLevel prev = log_level();
  set_log_level(LogLevel::kOff);
  ORIGAMI_LOG_ERROR("test") << "must not crash while filtered";
  set_log_level(prev);
  SUCCEED();
}

}  // namespace
}  // namespace origami::common
