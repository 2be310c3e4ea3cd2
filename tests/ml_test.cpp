// Tests for the from-scratch ML stack: dataset handling, the histogram
// GBDT (leaf-wise and level-wise), the MLP, and regression metrics.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <sstream>

#include "origami/common/rng.hpp"
#include "origami/ml/dataset.hpp"
#include "origami/ml/gbdt.hpp"
#include "origami/ml/metrics.hpp"
#include "origami/ml/mlp.hpp"

namespace origami::ml {
namespace {

Dataset make_linear_data(std::size_t n, std::uint64_t seed, double noise = 0.0,
                         std::size_t features = 3) {
  // y = 3*x0 - 2*x1 (+ noise); remaining features are pure noise.
  Dataset data;
  common::Xoshiro256 rng(seed);
  std::vector<float> row(features);
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& x : row) x = static_cast<float>(rng.uniform_double());
    const double y =
        3.0 * row[0] - 2.0 * row[1] + noise * rng.normal();
    data.add_row(row, static_cast<float>(y));
  }
  return data;
}

Dataset make_step_data(std::size_t n, std::uint64_t seed) {
  // y = 10 if x0 > 0.5 else 0 — a single split suffices.
  Dataset data;
  common::Xoshiro256 rng(seed);
  std::vector<float> row(2);
  for (std::size_t i = 0; i < n; ++i) {
    row[0] = static_cast<float>(rng.uniform_double());
    row[1] = static_cast<float>(rng.uniform_double());
    data.add_row(row, row[0] > 0.5f ? 10.0f : 0.0f);
  }
  return data;
}

// --------------------------------------------------------------- Dataset --

TEST(Dataset, AddAndAccessRows) {
  Dataset data({"a", "b"});
  data.add_row(std::array<float, 2>{1.f, 2.f}, 3.f);
  data.add_row(std::array<float, 2>{4.f, 5.f}, 6.f);
  EXPECT_EQ(data.size(), 2u);
  EXPECT_EQ(data.num_features(), 2u);
  EXPECT_FLOAT_EQ(data.row(1)[0], 4.f);
  EXPECT_FLOAT_EQ(data.label(0), 3.f);
  EXPECT_EQ(data.column(1), (std::vector<float>{2.f, 5.f}));
}

TEST(Dataset, SplitPartitionsAllRows) {
  const Dataset data = make_linear_data(1000, 1);
  auto [train, valid] = data.split(0.8, 42);
  EXPECT_EQ(train.size() + valid.size(), 1000u);
  EXPECT_NEAR(static_cast<double>(train.size()), 800.0, 1.0);
  EXPECT_EQ(train.num_features(), data.num_features());
}

TEST(Dataset, SplitIsDeterministic) {
  const Dataset data = make_linear_data(200, 2);
  auto [a1, b1] = data.split(0.5, 7);
  auto [a2, b2] = data.split(0.5, 7);
  ASSERT_EQ(a1.size(), a2.size());
  for (std::size_t i = 0; i < a1.size(); ++i) {
    EXPECT_FLOAT_EQ(a1.label(i), a2.label(i));
  }
}

TEST(Dataset, AppendConcatenates) {
  Dataset a = make_linear_data(10, 3);
  const Dataset b = make_linear_data(15, 4);
  a.append(b);
  EXPECT_EQ(a.size(), 25u);
}

// ------------------------------------------------------------------ GBDT --

TEST(Gbdt, LearnsStepFunctionExactly) {
  const Dataset data = make_step_data(2000, 5);
  GbdtParams params;
  params.rounds = 30;
  params.learning_rate = 0.3;
  const GbdtModel model = GbdtModel::train(data, params);
  const auto pred = model.predict_batch(data);
  // A few points straddle the histogram bin containing the 0.5 boundary;
  // everything else must be exact.
  EXPECT_LT(rmse(pred, data.labels()), 0.8);
  EXPECT_NEAR(model.predict(std::array<float, 2>{0.9f, 0.5f}), 10.0, 1.0);
  EXPECT_NEAR(model.predict(std::array<float, 2>{0.1f, 0.5f}), 0.0, 1.0);
}

TEST(Gbdt, LearnsLinearFunction) {
  const Dataset train = make_linear_data(4000, 6, 0.05);
  const Dataset test = make_linear_data(500, 7, 0.0);
  GbdtParams params;
  params.rounds = 150;
  params.learning_rate = 0.1;
  const GbdtModel model = GbdtModel::train(train, params);
  const auto pred = model.predict_batch(test);
  EXPECT_LT(rmse(pred, test.labels()), 0.25);
  EXPECT_GT(r2(pred, test.labels()), 0.95);
}

TEST(Gbdt, ImportanceIdentifiesInformativeFeatures) {
  const Dataset data = make_linear_data(3000, 8, 0.0, /*features=*/5);
  GbdtParams params;
  params.rounds = 60;
  const GbdtModel model = GbdtModel::train(data, params);
  const auto ranking = model.importance_ranking();
  ASSERT_EQ(ranking.size(), 5u);
  // x0 (weight 3) and x1 (weight -2) carry all signal.
  EXPECT_TRUE((ranking[0] == 0 && ranking[1] == 1) ||
              (ranking[0] == 1 && ranking[1] == 0));
  EXPECT_GT(model.feature_importance()[0],
            10 * model.feature_importance()[3]);
}

TEST(Gbdt, SaveLoadRoundtripPredictsIdentically) {
  const Dataset data = make_linear_data(1000, 9, 0.1);
  GbdtParams params;
  params.rounds = 40;
  const GbdtModel model = GbdtModel::train(data, params);
  std::stringstream buf;
  model.save(buf);
  const GbdtModel loaded = GbdtModel::load(buf);
  EXPECT_EQ(loaded.num_trees(), model.num_trees());
  EXPECT_EQ(loaded.num_features(), model.num_features());
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_NEAR(loaded.predict(data.row(i)), model.predict(data.row(i)), 1e-9);
  }
}

TEST(Gbdt, EarlyStoppingShortensTraining) {
  const Dataset data = make_step_data(2000, 10);
  auto [train, valid] = data.split(0.8, 1);
  GbdtParams params;
  params.rounds = 400;
  params.early_stopping_rounds = 10;
  params.learning_rate = 0.3;
  const GbdtModel model = GbdtModel::train(train, params, &valid);
  // The step function converges almost immediately; early stopping must
  // cut far below the 400-round budget.
  EXPECT_LT(model.num_trees(), 100);
}

TEST(Gbdt, EarlyStoppingStopsWhereFullRepredictionWould) {
  const Dataset data = make_linear_data(600, 21, 0.5);
  auto [train, valid] = data.split(0.8, 3);
  GbdtParams params;
  params.rounds = 60;
  params.learning_rate = 0.3;
  params.bagging_fraction = 0.8;
  params.early_stopping_rounds = 5;
  auto saved = [](const GbdtModel& m) {
    std::ostringstream out;
    m.save(out);
    return out.str();
  };
  auto trained_without_valid = [&](int rounds) {
    GbdtParams p = params;
    p.rounds = rounds;
    return GbdtModel::train(train, p);
  };
  // Reference: the validation RMSE after r rounds, from a model re-predicted
  // from scratch, fed through the trainer's stopping rule.
  int expected = params.rounds;
  double best = std::numeric_limits<double>::infinity();
  int since_best = 0;
  for (int r = 1; r <= params.rounds; ++r) {
    const double v =
        rmse(trained_without_valid(r).predict_batch(valid), valid.labels());
    if (v + 1e-12 < best) {
      best = v;
      since_best = 0;
    } else if (++since_best >= params.early_stopping_rounds) {
      expected = r;
      break;
    }
  }
  ASSERT_LT(expected, params.rounds) << "the reference never stops early";

  const GbdtModel stopped = GbdtModel::train(train, params, &valid);
  EXPECT_EQ(stopped.num_trees(), expected);
  EXPECT_EQ(saved(stopped), saved(trained_without_valid(expected)));
}

TEST(Gbdt, LevelWiseAlsoLearns) {
  const Dataset data = make_linear_data(3000, 11, 0.05);
  GbdtParams params;
  params.rounds = 120;
  params.leaf_wise = false;  // classic GBDT growth
  const GbdtModel model = GbdtModel::train(data, params);
  const auto pred = model.predict_batch(data);
  EXPECT_GT(r2(pred, data.labels()), 0.9);
}

TEST(Gbdt, BaggingStillLearns) {
  const Dataset data = make_linear_data(3000, 12, 0.05);
  GbdtParams params;
  params.rounds = 150;
  params.bagging_fraction = 0.6;
  const GbdtModel model = GbdtModel::train(data, params);
  const auto pred = model.predict_batch(data);
  EXPECT_GT(r2(pred, data.labels()), 0.9);
}

TEST(Gbdt, EmptyAndConstantDatasets) {
  Dataset empty;
  const GbdtModel m0 = GbdtModel::train(empty, {});
  EXPECT_EQ(m0.num_trees(), 0);

  Dataset constant({"x"});
  for (int i = 0; i < 50; ++i) {
    constant.add_row(std::array<float, 1>{1.0f}, 5.0f);
  }
  GbdtParams params;
  params.rounds = 10;
  const GbdtModel m1 = GbdtModel::train(constant, params);
  EXPECT_NEAR(m1.predict(std::array<float, 1>{1.0f}), 5.0, 1e-6);
}

TEST(Gbdt, DeterministicBySeed) {
  const Dataset data = make_linear_data(1000, 13, 0.1);
  GbdtParams params;
  params.rounds = 30;
  params.bagging_fraction = 0.7;
  const GbdtModel a = GbdtModel::train(data, params);
  const GbdtModel b = GbdtModel::train(data, params);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(a.predict(data.row(i)), b.predict(data.row(i)));
  }
}

class GbdtLeaves : public ::testing::TestWithParam<int> {};

TEST_P(GbdtLeaves, AccuracyImprovesOrHoldsWithCapacity) {
  const Dataset data = make_linear_data(2000, 14, 0.02);
  GbdtParams params;
  params.rounds = 80;
  params.max_leaves = GetParam();
  const GbdtModel model = GbdtModel::train(data, params);
  const auto pred = model.predict_batch(data);
  EXPECT_GT(r2(pred, data.labels()), 0.85) << "leaves=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Capacity, GbdtLeaves, ::testing::Values(4, 8, 32, 64));

// ------------------------------------------------------------------- MLP --

TEST(Mlp, LearnsLinearFunction) {
  const Dataset train = make_linear_data(3000, 15, 0.02);
  const Dataset test = make_linear_data(300, 16, 0.0);
  MlpParams params;
  params.epochs = 40;
  params.hidden = {32, 32, 16, 16};  // 4 hidden layers as in the paper
  const MlpModel model = MlpModel::train(train, params);
  EXPECT_EQ(model.num_layers(), 5u);  // 4 hidden + output
  const auto pred = model.predict_batch(test);
  EXPECT_GT(r2(pred, test.labels()), 0.9);
}

TEST(Mlp, HandlesEmptyDataset) {
  Dataset empty({"a", "b"});
  MlpParams params;
  params.epochs = 1;
  const MlpModel model = MlpModel::train(empty, params);
  EXPECT_EQ(model.num_layers(), 5u);
}

// --------------------------------------------------------------- metrics --

TEST(Metrics, RmseMaeKnownValues) {
  const std::vector<double> pred{1.0, 2.0, 3.0};
  const std::vector<float> truth{1.0f, 2.0f, 5.0f};
  EXPECT_NEAR(rmse(pred, truth), std::sqrt(4.0 / 3.0), 1e-9);
  EXPECT_NEAR(mae(pred, truth), 2.0 / 3.0, 1e-9);
}

TEST(Metrics, R2PerfectAndMeanPredictor) {
  const std::vector<float> truth{1.0f, 2.0f, 3.0f, 4.0f};
  EXPECT_DOUBLE_EQ(r2({1.0, 2.0, 3.0, 4.0}, truth), 1.0);
  EXPECT_DOUBLE_EQ(r2({2.5, 2.5, 2.5, 2.5}, truth), 0.0);
}

TEST(Metrics, SpearmanRankCorrelation) {
  const std::vector<float> truth{1.0f, 2.0f, 3.0f, 4.0f, 5.0f};
  // Perfect monotone (nonlinear) relation => rho = 1.
  EXPECT_NEAR(spearman({1.0, 4.0, 9.0, 16.0, 25.0}, truth), 1.0, 1e-9);
  // Perfect inverse => rho = -1.
  EXPECT_NEAR(spearman({5.0, 4.0, 3.0, 2.0, 1.0}, truth), -1.0, 1e-9);
  // Constant predictions => 0 by convention.
  EXPECT_DOUBLE_EQ(spearman({1.0, 1.0, 1.0, 1.0, 1.0}, truth), 0.0);
}

TEST(Metrics, SpearmanHandlesTies) {
  const std::vector<float> truth{1.0f, 1.0f, 2.0f, 2.0f};
  const double rho = spearman({1.0, 1.0, 2.0, 2.0}, truth);
  EXPECT_NEAR(rho, 1.0, 1e-9);
}

}  // namespace
}  // namespace origami::ml
