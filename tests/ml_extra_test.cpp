// Tests for the ML extensions: ranking metrics and MLP serialisation.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "origami/common/rng.hpp"
#include "origami/ml/dataset.hpp"
#include "origami/ml/metrics.hpp"
#include "origami/ml/mlp.hpp"

namespace origami::ml {
namespace {

Dataset linear_data(std::size_t n, std::uint64_t seed, double noise = 0.0) {
  Dataset data;
  common::Xoshiro256 rng(seed);
  std::vector<float> row(3);
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& x : row) x = static_cast<float>(rng.uniform_double());
    data.add_row(row, static_cast<float>(2.0 * row[0] - row[1] + 0.5 +
                                         noise * rng.normal()));
  }
  return data;
}

// --------------------------------------------------------- ranking metrics --

TEST(RankingMetrics, PerfectRankingScoresOne) {
  const std::vector<float> truth{5.f, 4.f, 3.f, 2.f, 1.f};
  const std::vector<double> pred{50, 40, 30, 20, 10};
  EXPECT_DOUBLE_EQ(ndcg_at_k(pred, truth, 3), 1.0);
  EXPECT_DOUBLE_EQ(precision_at_k(pred, truth, 3), 1.0);
}

TEST(RankingMetrics, InvertedRankingScoresLow) {
  const std::vector<float> truth{5.f, 4.f, 3.f, 2.f, 1.f};
  const std::vector<double> pred{10, 20, 30, 40, 50};
  EXPECT_LT(ndcg_at_k(pred, truth, 2), 0.6);
  EXPECT_DOUBLE_EQ(precision_at_k(pred, truth, 2), 0.0);
}

TEST(RankingMetrics, PartialOverlap) {
  const std::vector<float> truth{10.f, 9.f, 1.f, 0.f};
  const std::vector<double> pred{100, 1, 90, 2};  // places {0,2} on top
  EXPECT_DOUBLE_EQ(precision_at_k(pred, truth, 2), 0.5);
  const double g = ndcg_at_k(pred, truth, 2);
  EXPECT_GT(g, 0.5);
  EXPECT_LT(g, 1.0);
}

TEST(RankingMetrics, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(ndcg_at_k({}, {}, 3), 0.0);
  EXPECT_DOUBLE_EQ(precision_at_k({}, {}, 3), 0.0);
  const std::vector<float> zeros{0.f, 0.f};
  EXPECT_DOUBLE_EQ(ndcg_at_k({1.0, 2.0}, zeros, 2), 0.0);
}

// -------------------------------------------------------------- MLP (de)ser --

TEST(MlpSerialisation, RoundtripPredictsIdentically) {
  const Dataset data = linear_data(800, 8, 0.05);
  MlpParams params;
  params.epochs = 10;
  params.hidden = {16, 16, 8, 8};
  const MlpModel model = MlpModel::train(data, params);
  std::stringstream buf;
  model.save(buf);
  const MlpModel loaded = MlpModel::load(buf);
  EXPECT_EQ(loaded.num_layers(), model.num_layers());
  EXPECT_EQ(loaded.num_features(), model.num_features());
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_NEAR(loaded.predict(data.row(i)), model.predict(data.row(i)), 1e-12);
  }
}

TEST(MlpSerialisation, RejectsGarbage) {
  std::stringstream buf("not a model at all");
  const MlpModel model = MlpModel::load(buf);
  EXPECT_EQ(model.num_layers(), 0u);
}

}  // namespace
}  // namespace origami::ml
