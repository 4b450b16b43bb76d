#include <gtest/gtest.h>

#include <numeric>

#include "ml/forest.hpp"
#include "ml/metrics.hpp"
#include "util/rng.hpp"

namespace {

using namespace gea::ml;
using gea::util::Rng;

struct ToyData {
  std::vector<std::vector<double>> rows;
  std::vector<std::uint8_t> labels;
};

ToyData axis_aligned(std::size_t n, Rng& rng) {
  // Label 1 iff x0 > 0.5 (a single-split problem).
  ToyData d;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> row = {rng.uniform(), rng.uniform(), rng.uniform()};
    d.rows.push_back(row);
    d.labels.push_back(row[0] > 0.5 ? 1 : 0);
  }
  return d;
}

ToyData xor_data(std::size_t n, Rng& rng) {
  // Label = (x0 > .5) XOR (x1 > .5): needs depth >= 2.
  ToyData d;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> row = {rng.uniform(), rng.uniform()};
    d.rows.push_back(row);
    d.labels.push_back(((row[0] > 0.5) != (row[1] > 0.5)) ? 1 : 0);
  }
  return d;
}

TEST(DecisionTree, LearnsSingleSplit) {
  Rng rng(1);
  const auto d = axis_aligned(200, rng);
  std::vector<std::size_t> all(d.rows.size());
  std::iota(all.begin(), all.end(), 0);
  ForestConfig cfg;
  cfg.features_per_split = 3;  // see every feature
  DecisionTree tree;
  Rng trng(2);
  tree.fit(d.rows, d.labels, all, cfg, trng);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < d.rows.size(); ++i) {
    correct += (tree.prob1(d.rows[i]) >= 0.5 ? 1 : 0) == d.labels[i];
  }
  EXPECT_GT(static_cast<double>(correct) / d.rows.size(), 0.97);
}

TEST(DecisionTree, DepthBounded) {
  Rng rng(3);
  const auto d = xor_data(300, rng);
  std::vector<std::size_t> all(d.rows.size());
  std::iota(all.begin(), all.end(), 0);
  ForestConfig cfg;
  cfg.max_depth = 4;
  cfg.features_per_split = 2;
  DecisionTree tree;
  Rng trng(4);
  tree.fit(d.rows, d.labels, all, cfg, trng);
  EXPECT_LE(tree.depth(), 4u);
  EXPECT_GT(tree.num_nodes(), 1u);
}

TEST(DecisionTree, PureLeafShortCircuits) {
  const std::vector<std::vector<double>> rows = {{0.1}, {0.2}, {0.3}};
  const std::vector<std::uint8_t> labels = {1, 1, 1};
  DecisionTree tree;
  Rng rng(1);
  tree.fit(rows, labels, {0, 1, 2}, {}, rng);
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_DOUBLE_EQ(tree.prob1({0.15}), 1.0);
}

TEST(DecisionTree, UnfittedThrows) {
  DecisionTree tree;
  EXPECT_THROW(tree.prob1({0.5}), std::logic_error);
}

TEST(RandomForest, LearnsXor) {
  Rng rng(5);
  const auto d = xor_data(400, rng);
  ForestConfig cfg;
  cfg.num_trees = 30;
  cfg.features_per_split = 2;
  RandomForest forest(cfg);
  forest.fit(d.rows, d.labels);
  const auto preds = forest.predict_all(d.rows);
  const auto cm = confusion_k(2, preds, d.labels);
  EXPECT_GT(cm.accuracy(), 0.95);
}

TEST(RandomForest, ProbabilitiesBounded) {
  Rng rng(6);
  const auto d = axis_aligned(150, rng);
  RandomForest forest;
  forest.fit(d.rows, d.labels);
  for (const auto& row : d.rows) {
    const double p = forest.prob1(row);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(RandomForest, DeterministicForSeed) {
  Rng rng(7);
  const auto d = xor_data(200, rng);
  ForestConfig cfg;
  cfg.num_trees = 10;
  cfg.seed = 99;
  RandomForest a(cfg), b(cfg);
  a.fit(d.rows, d.labels);
  b.fit(d.rows, d.labels);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(a.prob1(d.rows[i]), b.prob1(d.rows[i]));
  }
}

TEST(RandomForest, ErrorPaths) {
  RandomForest forest;
  EXPECT_THROW(forest.fit({}, {}), std::invalid_argument);
  EXPECT_THROW(forest.predict({0.5}), std::logic_error);
  EXPECT_THROW(forest.fit({{1.0}}, {0, 1}), std::invalid_argument);
}

TEST(RandomForest, MoreTreesSmootherThanOne) {
  Rng rng(8);
  const auto d = xor_data(300, rng);
  ForestConfig one;
  one.num_trees = 1;
  ForestConfig many;
  many.num_trees = 40;
  RandomForest f1(one), f40(many);
  f1.fit(d.rows, d.labels);
  f40.fit(d.rows, d.labels);
  // Ensemble accuracy should not be worse.
  const auto acc = [&](const RandomForest& f) {
    return confusion_k(2, f.predict_all(d.rows), d.labels).accuracy();
  };
  EXPECT_GE(acc(f40) + 0.02, acc(f1));
}

}  // namespace
