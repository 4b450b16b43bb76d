#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "ml/activations.hpp"
#include "ml/conv1d.hpp"
#include "ml/dense.hpp"
#include "ml/loss.hpp"
#include "ml/metrics.hpp"
#include "ml/model.hpp"
#include "ml/optimizer.hpp"
#include "ml/pooling.hpp"
#include "ml/trainer.hpp"
#include "ml/zoo.hpp"
#include "util/rng.hpp"

namespace {

using namespace gea::ml;
using gea::util::Rng;

// ---------------------------------------------------------------------------
// Tensor

TEST(Tensor, ShapeAndSize) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.rank(), 3u);
  EXPECT_EQ(t.size(), 24u);
  EXPECT_EQ(t.dim(1), 3u);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, Indexing) {
  Tensor t({2, 3});
  t.at2(1, 2) = 5.0f;
  EXPECT_EQ(t[5], 5.0f);
  Tensor u({2, 3, 4});
  u.at3(1, 2, 3) = 7.0f;
  EXPECT_EQ(u[23], 7.0f);
}

TEST(Tensor, FromValuesChecksSize) {
  EXPECT_NO_THROW(Tensor::from_values({2, 2}, {1, 2, 3, 4}));
  EXPECT_THROW(Tensor::from_values({2, 2}, {1, 2, 3}), std::invalid_argument);
}

TEST(Tensor, ReshapePreservesData) {
  auto t = Tensor::from_values({2, 3}, {1, 2, 3, 4, 5, 6});
  t.reshape({3, 2});
  EXPECT_EQ(t.at2(2, 1), 6.0f);
  EXPECT_THROW(t.reshape({4, 2}), std::invalid_argument);
}

TEST(Tensor, ArithmeticAndNorms) {
  auto a = Tensor::from_values({3}, {3, 0, -4});
  auto b = Tensor::from_values({3}, {1, 1, 1});
  a += b;
  EXPECT_EQ(a[0], 4.0f);
  a -= b;
  a *= 2.0f;
  EXPECT_EQ(a[2], -8.0f);
  EXPECT_DOUBLE_EQ(Tensor::from_values({2}, {3, -4}).l2_norm(), 5.0);
  EXPECT_DOUBLE_EQ(Tensor::from_values({2}, {3, -4}).l1_norm(), 7.0);
  EXPECT_DOUBLE_EQ(Tensor::from_values({2}, {3, -4}).linf_norm(), 4.0);
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a({2}), b({3});
  EXPECT_THROW(a += b, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Gradient checking machinery: compare backprop input gradients against
// central finite differences through a scalar loss sum(output * seed).

double layer_loss(Layer& layer, const Tensor& x, const Tensor& seed) {
  Tensor y = layer.forward(x, /*training=*/false);
  double s = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    s += static_cast<double>(y[i]) * static_cast<double>(seed[i]);
  }
  return s;
}

void check_input_gradient(Layer& layer, Tensor x, double tol = 2e-2) {
  Rng rng(99);
  Tensor y = layer.forward(x, false);
  Tensor seed(y.shape());
  for (std::size_t i = 0; i < seed.size(); ++i) {
    seed[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  (void)layer.forward(x, false);
  const Tensor analytic = layer.backward(seed);

  const float h = 1e-3f;
  for (std::size_t i = 0; i < x.size(); ++i) {
    Tensor xp = x, xm = x;
    xp[i] += h;
    xm[i] -= h;
    const double numeric =
        (layer_loss(layer, xp, seed) - layer_loss(layer, xm, seed)) /
        (2.0 * static_cast<double>(h));
    EXPECT_NEAR(analytic[i], numeric, tol) << "input index " << i;
  }
}

void check_param_gradient(Layer& layer, const Tensor& x, double tol = 2e-2) {
  Rng rng(77);
  Tensor y = layer.forward(x, false);
  Tensor seed(y.shape());
  for (std::size_t i = 0; i < seed.size(); ++i) {
    seed[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  for (auto& p : layer.params()) {
    std::fill(p.grad->begin(), p.grad->end(), 0.0f);
  }
  (void)layer.forward(x, false);
  (void)layer.backward(seed);

  const float h = 1e-3f;
  for (auto& p : layer.params()) {
    for (std::size_t j = 0; j < p.value->size(); ++j) {
      const float orig = (*p.value)[j];
      (*p.value)[j] = orig + h;
      const double lp = layer_loss(layer, x, seed);
      (*p.value)[j] = orig - h;
      const double lm = layer_loss(layer, x, seed);
      (*p.value)[j] = orig;
      const double numeric = (lp - lm) / (2.0 * static_cast<double>(h));
      EXPECT_NEAR((*p.grad)[j], numeric, tol) << p.name << "[" << j << "]";
    }
  }
}

Tensor random_tensor(std::vector<std::size_t> shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

// ---------------------------------------------------------------------------
// Dense

TEST(Dense, ForwardKnownValues) {
  Dense d(2, 1);
  auto params = d.params();
  (*params[0].value)[0] = 2.0f;  // w
  (*params[0].value)[1] = 3.0f;
  (*params[1].value)[0] = 1.0f;  // b
  const auto y = d.forward(Tensor::from_values({1, 2}, {4, 5}), false);
  EXPECT_FLOAT_EQ(y[0], 2 * 4 + 3 * 5 + 1);
}

TEST(Dense, ShapeValidation) {
  Dense d(3, 2);
  EXPECT_THROW(d.forward(Tensor({1, 4}), false), std::invalid_argument);
}

TEST(Dense, GradientCheckInput) {
  Dense d(4, 3);
  Rng rng(1);
  d.init(rng);
  check_input_gradient(d, random_tensor({2, 4}, 5));
}

TEST(Dense, GradientCheckParams) {
  Dense d(4, 3);
  Rng rng(2);
  d.init(rng);
  check_param_gradient(d, random_tensor({2, 4}, 6));
}

// ---------------------------------------------------------------------------
// Conv1D

TEST(Conv1D, OutputLengths) {
  Conv1D same(1, 4, 3, Padding::kSame);
  Conv1D valid(1, 4, 3, Padding::kValid);
  EXPECT_EQ(same.output_length(23), 23u);
  EXPECT_EQ(valid.output_length(23), 21u);
  EXPECT_THROW(valid.output_length(2), std::invalid_argument);
}

TEST(Conv1D, RejectsEvenKernel) {
  EXPECT_THROW(Conv1D(1, 1, 2, Padding::kSame), std::invalid_argument);
}

TEST(Conv1D, ForwardKnownValuesValid) {
  // Single in/out channel, kernel [1,2,3], input [1,2,3,4].
  Conv1D c(1, 1, 3, Padding::kValid);
  auto params = c.params();
  (*params[0].value) = {1, 2, 3};
  (*params[1].value) = {0};
  const auto y = c.forward(Tensor::from_values({1, 1, 4}, {1, 2, 3, 4}), false);
  ASSERT_EQ(y.size(), 2u);
  EXPECT_FLOAT_EQ(y[0], 1 * 1 + 2 * 2 + 3 * 3);  // 14
  EXPECT_FLOAT_EQ(y[1], 1 * 2 + 2 * 3 + 3 * 4);  // 20
}

TEST(Conv1D, ForwardKnownValuesSamePadding) {
  Conv1D c(1, 1, 3, Padding::kSame);
  auto params = c.params();
  (*params[0].value) = {1, 2, 3};
  (*params[1].value) = {1};
  const auto y = c.forward(Tensor::from_values({1, 1, 3}, {1, 1, 1}), false);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_FLOAT_EQ(y[0], 0 * 1 + 1 * 2 + 1 * 3 + 1);  // left zero pad
  EXPECT_FLOAT_EQ(y[1], 1 + 2 + 3 + 1);
  EXPECT_FLOAT_EQ(y[2], 1 * 1 + 1 * 2 + 0 * 3 + 1);  // right zero pad
}

TEST(Conv1D, GradientCheckInputSame) {
  Conv1D c(2, 3, 3, Padding::kSame);
  Rng rng(3);
  c.init(rng);
  check_input_gradient(c, random_tensor({2, 2, 6}, 7));
}

TEST(Conv1D, GradientCheckInputValid) {
  Conv1D c(2, 3, 3, Padding::kValid);
  Rng rng(4);
  c.init(rng);
  check_input_gradient(c, random_tensor({1, 2, 7}, 8));
}

TEST(Conv1D, GradientCheckParams) {
  Conv1D c(2, 2, 3, Padding::kSame);
  Rng rng(5);
  c.init(rng);
  check_param_gradient(c, random_tensor({2, 2, 5}, 9));
}

// ---------------------------------------------------------------------------
// Pooling / activations

TEST(MaxPool1D, ForwardPicksMaxima) {
  MaxPool1D p(2);
  const auto y =
      p.forward(Tensor::from_values({1, 1, 6}, {1, 5, 2, 2, 9, 3}), false);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_FLOAT_EQ(y[0], 5);
  EXPECT_FLOAT_EQ(y[1], 2);
  EXPECT_FLOAT_EQ(y[2], 9);
}

TEST(MaxPool1D, OddLengthDropsTail) {
  MaxPool1D p(2);
  const auto y = p.forward(Tensor::from_values({1, 1, 5}, {1, 2, 3, 4, 9}), false);
  EXPECT_EQ(y.dim(2), 2u);  // the 9 is dropped (floor semantics)
}

TEST(MaxPool1D, BackwardRoutesToArgmax) {
  MaxPool1D p(2);
  (void)p.forward(Tensor::from_values({1, 1, 4}, {1, 5, 7, 2}), false);
  const auto g = p.backward(Tensor::from_values({1, 1, 2}, {10, 20}));
  EXPECT_FLOAT_EQ(g[0], 0);
  EXPECT_FLOAT_EQ(g[1], 10);
  EXPECT_FLOAT_EQ(g[2], 20);
  EXPECT_FLOAT_EQ(g[3], 0);

  // Each window's first maximum under `>` takes the value and the gradient:
  // a tie goes to the earlier element, a leading NaN wins its window (no
  // value compares greater than it), and a trailing NaN loses.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const Tensor x =
      Tensor::from_values({1, 1, 8}, {3, 3, nan, 4, 4, nan, -0.0f, 0.0f});
  const Tensor y = p.forward(x, false);
  const Tensor yi = p.infer(x);
  ASSERT_EQ(yi.shape(), y.shape());
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(yi[i]),
              std::bit_cast<std::uint32_t>(y[i]));
  }
  EXPECT_EQ(y[0], 3.0f);
  EXPECT_TRUE(std::isnan(y[1]));
  EXPECT_EQ(y[2], 4.0f);
  EXPECT_TRUE(std::signbit(y[3]));  // -0 and +0 tie: the first one wins
  const auto gt = p.backward(Tensor::from_values({1, 1, 4}, {10, 20, 30, 40}));
  const std::vector<float> want = {10, 0, 20, 0, 30, 0, 40, 0};
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(gt[i], want[i]) << "element " << i;
  }
}

TEST(MaxPool1D, GradientCheck) {
  MaxPool1D p(2);
  // Use well-separated values so finite differences do not cross argmax ties.
  check_input_gradient(p, Tensor::from_values({1, 2, 4},
                                              {0.1f, 0.9f, 0.3f, 0.7f,
                                               0.8f, 0.2f, 0.6f, 0.4f}));
}

TEST(ReLU, ForwardBackward) {
  ReLU r;
  const auto y = r.forward(Tensor::from_values({1, 4}, {-1, 2, 0, 3}), false);
  EXPECT_FLOAT_EQ(y[0], 0);
  EXPECT_FLOAT_EQ(y[1], 2);
  const auto g = r.backward(Tensor::from_values({1, 4}, {5, 5, 5, 5}));
  EXPECT_FLOAT_EQ(g[0], 0);
  EXPECT_FLOAT_EQ(g[1], 5);
  EXPECT_FLOAT_EQ(g[2], 0);  // gradient is 0 at exactly 0
}

TEST(Dropout, IdentityAtInference) {
  Rng rng(1);
  Dropout d(0.5, rng);
  const auto x = random_tensor({4, 8}, 11);
  const auto y = d.forward(x, /*training=*/false);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(Dropout, TrainingZeroesAndRescales) {
  Rng rng(2);
  Dropout d(0.5, rng);
  Tensor x({1, 10000});
  x.fill(1.0f);
  const auto y = d.forward(x, /*training=*/true);
  std::size_t zeros = 0;
  double sum = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] == 0.0f) ++zeros;
    else EXPECT_FLOAT_EQ(y[i], 2.0f);  // 1/(1-0.5)
    sum += y[i];
  }
  EXPECT_NEAR(static_cast<double>(zeros) / y.size(), 0.5, 0.03);
  EXPECT_NEAR(sum / y.size(), 1.0, 0.06);  // expectation preserved
}

TEST(Dropout, RejectsBadProbability) {
  Rng rng(1);
  EXPECT_THROW(Dropout(-0.1, rng), std::invalid_argument);
  EXPECT_THROW(Dropout(1.0, rng), std::invalid_argument);
}

TEST(Flatten, RoundTrip) {
  Flatten f;
  const auto y = f.forward(random_tensor({2, 3, 4}, 13), false);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 12}));
  const auto g = f.backward(Tensor({2, 12}));
  EXPECT_EQ(g.shape(), (std::vector<std::size_t>{2, 3, 4}));
}

// ---------------------------------------------------------------------------
// Loss

TEST(Loss, SoftmaxRowsSumToOne) {
  const auto p = softmax(Tensor::from_values({2, 3}, {1, 2, 3, -1, 0, 1}));
  for (std::size_t i = 0; i < 2; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < 3; ++j) s += p.at2(i, j);
    EXPECT_NEAR(s, 1.0, 1e-6);
  }
}

TEST(Loss, SoftmaxNumericallyStable) {
  const auto p = softmax(Tensor::from_values({1, 2}, {1000, 1001}));
  EXPECT_FALSE(std::isnan(p[0]));
  EXPECT_NEAR(p[1], 1.0 / (1.0 + std::exp(-1.0)), 1e-5);
}

TEST(Loss, CrossEntropyUniformLogits) {
  const Tensor z({1, 4});  // all zeros -> uniform
  EXPECT_NEAR(cross_entropy(z, {0}), std::log(4.0), 1e-6);
}

TEST(Loss, CrossEntropyGradMatchesFiniteDifference) {
  auto z = random_tensor({2, 3}, 15);
  const std::vector<std::uint8_t> labels = {1, 2};
  const auto g = cross_entropy_grad(z, labels);
  const float h = 1e-3f;
  for (std::size_t i = 0; i < z.size(); ++i) {
    Tensor zp = z, zm = z;
    zp[i] += h;
    zm[i] -= h;
    const double numeric =
        (cross_entropy(zp, labels) - cross_entropy(zm, labels)) / (2.0 * h);
    EXPECT_NEAR(g[i], numeric, 1e-3);
  }
}

TEST(Loss, ArgmaxRows) {
  const auto a = argmax_rows(Tensor::from_values({2, 3}, {1, 9, 2, 7, 1, 3}));
  EXPECT_EQ(a, (std::vector<std::uint8_t>{1, 0}));
}

TEST(Loss, LabelCountMismatchThrows) {
  EXPECT_THROW(cross_entropy(Tensor({2, 2}), {0}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Optimizers: converge on a quadratic via a 1-param "layer".

TEST(Optimizer, SgdConvergesOnQuadratic) {
  std::vector<float> w = {10.0f};
  std::vector<float> g = {0.0f};
  const std::vector<Param> params = {{&w, &g, "w"}};
  Sgd opt(0.1);
  for (int i = 0; i < 200; ++i) {
    g[0] = 2.0f * w[0];  // d/dw w^2
    opt.step(params);
  }
  EXPECT_NEAR(w[0], 0.0f, 1e-3);
}

TEST(Optimizer, SgdMomentumConverges) {
  std::vector<float> w = {10.0f};
  std::vector<float> g = {0.0f};
  const std::vector<Param> params = {{&w, &g, "w"}};
  Sgd opt(0.05, 0.9);
  for (int i = 0; i < 300; ++i) {
    g[0] = 2.0f * w[0];
    opt.step(params);
  }
  EXPECT_NEAR(w[0], 0.0f, 1e-2);
}

TEST(Optimizer, AdamConvergesOnQuadratic) {
  std::vector<float> w = {10.0f};
  std::vector<float> g = {0.0f};
  const std::vector<Param> params = {{&w, &g, "w"}};
  Adam opt(0.3);
  for (int i = 0; i < 300; ++i) {
    g[0] = 2.0f * w[0];
    opt.step(params);
  }
  EXPECT_NEAR(w[0], 0.0f, 1e-2);
}

// ---------------------------------------------------------------------------
// Model + training on a separable toy problem

LabeledData make_toy_data(std::size_t n, std::size_t dim, Rng& rng) {
  // Class 1 iff mean(x) > 0.5.
  LabeledData data;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> row(dim);
    const bool positive = rng.chance(0.5);
    for (auto& v : row) {
      v = positive ? rng.uniform(0.55, 1.0) : rng.uniform(0.0, 0.45);
    }
    data.rows.push_back(std::move(row));
    data.labels.push_back(positive ? 1 : 0);
  }
  return data;
}

TEST(Model, MlpLearnsSeparableTask) {
  Rng rng(21);
  auto data = make_toy_data(200, 8, rng);
  Model m = make_mlp_baseline(8, 2);
  Rng wrng(1);
  m.init(wrng);
  TrainConfig cfg;
  cfg.epochs = 80;
  cfg.batch_size = 32;
  train(m, data, cfg);
  const auto cm = evaluate(m, data);
  EXPECT_GT(cm.accuracy(), 0.97);
}

TEST(Model, PaperCnnShapesMatchFig5) {
  Rng drng(1);
  Model m = make_paper_cnn(23, 2, drng);
  Rng wrng(2);
  m.init(wrng);
  const auto out = m.forward(Tensor({4, 1, 23}), false);
  EXPECT_EQ(out.shape(), (std::vector<std::size_t>{4, 2}));
  // Parameter count documents the architecture:
  // conv1: 46*3+46; conv2: 46*46*3+46; conv3: 46*92*3+92; conv4: 92*92*3+92;
  // dense1: 368*512+512; dense2: 512*2+2.
  const std::size_t expected = (46 * 3 + 46) + (46 * 46 * 3 + 46) +
                               (46 * 92 * 3 + 92) + (92 * 92 * 3 + 92) +
                               (368 * 512 + 512) + (512 * 2 + 2);
  EXPECT_EQ(m.num_parameters(), expected);
  const auto s = m.summary();
  EXPECT_NE(s.find("Conv1D(1->46"), std::string::npos);
  EXPECT_NE(s.find("Dense(368->512)"), std::string::npos);
}

TEST(Model, CnnLearnsToyTask) {
  Rng rng(31);
  auto data = make_toy_data(150, 23, rng);
  Rng drng(3);
  Model m = make_paper_cnn(23, 2, drng);
  Rng wrng(4);
  m.init(wrng);
  TrainConfig cfg;
  cfg.epochs = 25;
  cfg.batch_size = 32;
  cfg.early_stop_loss = 0.05;
  train(m, data, cfg);
  EXPECT_GT(evaluate(m, data).accuracy(), 0.95);
}

TEST(Model, SaveLoadRoundTrip) {
  Rng drng(1);
  Model a = make_mlp_baseline(6, 2);
  Rng wrng(5);
  a.init(wrng);
  const auto path =
      (std::filesystem::temp_directory_path() / "gea_model_test.bin").string();
  a.save(path);

  Model b = make_mlp_baseline(6, 2);
  b.load(path);
  const auto x = random_tensor({3, 1, 6}, 17);
  // Flatten first layer accepts (N,1,6).
  const auto ya = a.forward(x, false);
  const auto yb = b.forward(x, false);
  for (std::size_t i = 0; i < ya.size(); ++i) EXPECT_EQ(ya[i], yb[i]);
  std::filesystem::remove(path);
}

TEST(Model, LoadRejectsWrongArchitecture) {
  Model a = make_mlp_baseline(6, 2);
  Rng wrng(5);
  a.init(wrng);
  const auto path =
      (std::filesystem::temp_directory_path() / "gea_model_test2.bin").string();
  a.save(path);
  Model b = make_mlp_baseline(7, 2);
  EXPECT_THROW(b.load(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Model, LoadRejectsMissingFile) {
  Model m = make_mlp_baseline(4, 2);
  EXPECT_THROW(m.load("/no_such_file_gea.bin"), std::runtime_error);
}

// Whole-model input gradient check (inference mode, so dropout is inert).
TEST(Model, EndToEndInputGradientMatchesFiniteDifference) {
  Rng drng(1);
  Model m = make_paper_cnn(23, 2, drng);
  Rng wrng(6);
  m.init(wrng);
  ModelClassifier clf(m, 23, 2);

  Rng rng(7);
  std::vector<double> x(23);
  for (auto& v : x) v = rng.uniform(0.0, 1.0);

  for (std::size_t k = 0; k < 2; ++k) {
    const auto g = clf.grad_logit(x, k);
    const double h = 1e-3;
    for (std::size_t i = 0; i < x.size(); i += 5) {  // subsample for speed
      auto xp = x, xm = x;
      xp[i] += h;
      xm[i] -= h;
      const double numeric = (clf.logits(xp)[k] - clf.logits(xm)[k]) / (2 * h);
      EXPECT_NEAR(g[i], numeric, 5e-2) << "logit " << k << " input " << i;
    }
  }
}

TEST(ModelClassifier, PredictAndProbabilities) {
  Model m = make_mlp_baseline(4, 2);
  Rng wrng(8);
  m.init(wrng);
  ModelClassifier clf(m, 4, 2);
  const std::vector<double> x = {0.1, 0.2, 0.3, 0.4};
  const auto p = clf.probabilities(x);
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-9);
  EXPECT_EQ(clf.predict(x), p[0] > p[1] ? 0u : 1u);
}

TEST(ModelClassifier, GradLossPointsDownhill) {
  Rng rng(41);
  auto data = make_toy_data(100, 6, rng);
  Model m = make_mlp_baseline(6, 2);
  Rng wrng(9);
  m.init(wrng);
  TrainConfig cfg;
  cfg.epochs = 30;
  train(m, data, cfg);
  ModelClassifier clf(m, 6, 2);

  const auto& x = data.rows[0];
  const auto label = data.labels[0];
  const auto g = clf.grad_loss(x, label);
  // Stepping along +grad must increase the loss (= decrease the true-class
  // probability).
  auto x2 = x;
  for (std::size_t i = 0; i < x2.size(); ++i) x2[i] += 0.05 * g[i];
  EXPECT_LE(clf.probabilities(x2)[label], clf.probabilities(x)[label] + 1e-9);
}

// ---------------------------------------------------------------------------
// Input-gradient path

bool same_bits(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(a[i]) !=
        std::bit_cast<std::uint32_t>(b[i])) {
      return false;
    }
  }
  return true;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

bool all_param_grads_zero(Model& m) {
  for (const auto& p : m.params()) {
    for (float g : *p.grad) {
      if (std::bit_cast<std::uint32_t>(g) != 0u) return false;
    }
  }
  return true;
}

TEST(Model, BackwardInputMatchesBackwardWithoutParamGrads) {
  Rng drng(1);
  Model m = make_paper_cnn(23, 2, drng);
  Rng wrng(12);
  m.init(wrng);
  for (std::size_t n : {1u, 3u, 16u}) {
    const Tensor x = random_tensor({n, 1, 23}, 40 + n);
    const Tensor seed = random_tensor({n, 2}, 60 + n);
    m.zero_grad();
    (void)m.forward(x, false);
    const Tensor full = m.backward(seed);
    EXPECT_FALSE(all_param_grads_zero(m)) << "backward() must fill grads";

    m.zero_grad();
    (void)m.forward(x, false);
    const Tensor input_only = m.backward_input(seed);
    EXPECT_TRUE(same_bits(full, input_only)) << "batch " << n;
    EXPECT_TRUE(all_param_grads_zero(m)) << "batch " << n;
  }
}

/// Forwards logits, grad_logit and grad_weighted to a ModelClassifier and
/// nothing else, so grad_loss runs the base class's composition.
class ComposedClassifier : public DifferentiableClassifier {
 public:
  explicit ComposedClassifier(ModelClassifier& inner) : inner_(&inner) {}
  std::size_t input_dim() const override { return inner_->input_dim(); }
  std::size_t num_classes() const override { return inner_->num_classes(); }
  std::vector<double> logits(const std::vector<double>& x) override {
    return inner_->logits(x);
  }
  std::vector<double> grad_logit(const std::vector<double>& x,
                                 std::size_t k) override {
    return inner_->grad_logit(x, k);
  }
  std::vector<double> grad_weighted(const std::vector<double>& x,
                                    const std::vector<double>& w) override {
    return inner_->grad_weighted(x, w);
  }

 private:
  ModelClassifier* inner_;
};

TEST(ModelClassifier, GradLossLogitsAndGradientMatchComposition) {
  for (std::size_t classes : {2u, 4u}) {
    Rng drng(1);
    Model m = make_paper_cnn(23, classes, drng);
    Rng wrng(13);
    m.init(wrng);
    ModelClassifier clf(m, 23, classes);
    ComposedClassifier composed(clf);
    Rng rng(14);
    for (std::size_t trial = 0; trial < 6; ++trial) {
      std::vector<double> x(23);
      for (auto& v : x) v = rng.uniform(0.0, 1.0);
      const std::size_t label = trial % classes;
      std::vector<double> z;
      const auto g = clf.grad_loss(x, label, &z);
      EXPECT_TRUE(same_bits(z, clf.logits(x)));
      EXPECT_TRUE(same_bits(g, composed.grad_loss(x, label)));
      std::vector<double> z_composed;
      EXPECT_TRUE(same_bits(g, composed.grad_loss(x, label, &z_composed)));
      EXPECT_TRUE(same_bits(z, z_composed));
      EXPECT_TRUE(same_bits(g, clf.grad_loss(x, label)));
    }
    EXPECT_THROW(clf.grad_loss(std::vector<double>(23, 0.5), classes, nullptr),
                 std::invalid_argument);
  }
}

/// Identity layer that counts the passes run through it.
struct PassCounts {
  int forward = 0, infer = 0, backward = 0, backward_input = 0;
};

class CountingIdentity : public Layer {
 public:
  explicit CountingIdentity(PassCounts& counts) : counts_(&counts) {}
  Tensor infer(const Tensor& x) const override {
    ++counts_->infer;
    return x;
  }
  Tensor forward(const Tensor& x, bool) override {
    ++counts_->forward;
    return x;
  }
  Tensor backward(const Tensor& g) override {
    ++counts_->backward;
    return g;
  }
  Tensor backward_input(const Tensor& g) override {
    ++counts_->backward_input;
    return g;
  }
  std::string describe() const override { return "CountingIdentity"; }
  LayerPtr clone() const override {
    return std::make_unique<CountingIdentity>(*counts_);
  }

 private:
  PassCounts* counts_;
};

TEST(ModelClassifier, GradLossRunsOneForwardAndOneInputBackward) {
  PassCounts counts;
  Model m;
  m.add(std::make_unique<CountingIdentity>(counts));
  m.add(std::make_unique<Flatten>());
  m.add(std::make_unique<Dense>(4, 2));
  Rng wrng(15);
  m.init(wrng);
  ModelClassifier clf(m, 4, 2);
  const std::vector<double> x = {0.1, 0.7, 0.3, 0.9};

  std::vector<double> z;
  (void)clf.grad_loss(x, 1, &z);
  EXPECT_EQ(counts.forward, 1);
  EXPECT_EQ(counts.infer, 0);
  EXPECT_EQ(counts.backward_input, 1);
  EXPECT_EQ(counts.backward, 0);

  // The composition's logits() runs infer; its grad_weighted() runs the
  // forward that the input backward follows.
  counts = {};
  ComposedClassifier composed(clf);
  (void)composed.grad_loss(x, 1, &z);
  EXPECT_EQ(counts.forward, 1);
  EXPECT_EQ(counts.infer, 1);
  EXPECT_EQ(counts.backward_input, 1);
  EXPECT_EQ(counts.backward, 0);
}

/// Owning ModelClassifier over a freshly initialised paper CNN.
std::unique_ptr<DifferentiableClassifier> owned_cnn(std::size_t classes,
                                                   std::uint64_t seed) {
  Rng drng(1);
  Model m = make_paper_cnn(23, classes, drng);
  Rng wrng(seed);
  m.init(wrng);
  return ModelClassifier(m, 23, classes).clone();
}

TEST(DifferentiableClassifier, LogitsBatchRowsMatchPerRowLogitsBitwise) {
  for (std::size_t classes : {2u, 4u}) {
    Rng drng(1);
    Model m = make_paper_cnn(23, classes, drng);
    Rng wrng(16);
    m.init(wrng);
    ModelClassifier clf(m, 23, classes);
    ComposedClassifier composed(clf);  // the default, one logits() per row
    std::vector<std::string> names = {"benign"};
    for (std::size_t c = 1; c < classes; ++c) {
      names.push_back("family-" + std::to_string(c));
    }
    auto schema = LabelSchema::make(names, 0);
    ASSERT_TRUE(schema.is_ok());
    HierarchicalClassifier hier(owned_cnn(2, 17), owned_cnn(classes - 1, 18),
                                schema.value());

    Rng rng(19);
    for (DifferentiableClassifier* c :
         std::vector<DifferentiableClassifier*>{&composed, &hier, &clf}) {
      EXPECT_TRUE(c->logits_batch({}).empty());
      for (std::size_t n : {1u, 3u, 24u}) {
        std::vector<std::vector<double>> xs(n, std::vector<double>(23));
        for (auto& x : xs) {
          for (auto& v : x) v = rng.uniform(0.0, 1.0);
        }
        const auto z = c->logits_batch(xs);
        ASSERT_EQ(z.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_TRUE(same_bits(z[i], c->logits(xs[i])))
              << "K=" << classes << " batch " << n << " row " << i;
        }
      }
    }
  }
}

// infer and forward share one rule, x > 0 ? x : 0, on every float: NaN and
// -0 give +0, and backward passes the gradient exactly where x > 0.
TEST(ReLU, InferEqualsForwardOnSpecialValues) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const std::vector<float> vals = {nan,     -nan,   0.0f,          -0.0f,
                                   inf,     -inf,   denorm,        -denorm,
                                   1e-40f, -1e-40f, 1.5f,          -2.5f};
  const Tensor x = Tensor::from_values({1, 1, vals.size()}, vals);
  ReLU r;
  const Tensor y = r.forward(x, false);
  EXPECT_TRUE(same_bits(r.infer(x), y));
  const Tensor g =
      r.backward(Tensor::from_values({1, 1, vals.size()},
                                     std::vector<float>(vals.size(), 3.0f)));
  for (std::size_t i = 0; i < vals.size(); ++i) {
    const bool pass = vals[i] > 0.0f;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(y[i]),
              std::bit_cast<std::uint32_t>(pass ? vals[i] : 0.0f))
        << "value " << i;
    EXPECT_EQ(g[i], pass ? 3.0f : 0.0f) << "value " << i;
  }
}

// A NaN feature takes the same route through the per-row and the batched
// path, so a row's logits do not depend on which one served it.
TEST(ModelClassifier, LogitsBatchEqualsLogitsOnNaNRow) {
  Rng drng(1);
  Model m = make_paper_cnn(23, 2, drng);
  Rng wrng(21);
  m.init(wrng);
  ModelClassifier clf(m, 23, 2);
  Rng rng(22);
  std::vector<std::vector<double>> xs(3, std::vector<double>(23));
  for (auto& x : xs) {
    for (auto& v : x) v = rng.uniform(0.0, 1.0);
  }
  xs[1][7] = std::numeric_limits<double>::quiet_NaN();
  const auto z = clf.logits_batch(xs);
  ASSERT_EQ(z.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_TRUE(same_bits(z[i], clf.logits(xs[i]))) << "row " << i;
  }
}

TEST(ModelClassifier, LogitsBatchRunsOneForwardForAllRows) {
  PassCounts counts;
  Model m;
  m.add(std::make_unique<CountingIdentity>(counts));
  m.add(std::make_unique<Flatten>());
  m.add(std::make_unique<Dense>(4, 2));
  Rng wrng(20);
  m.init(wrng);
  ModelClassifier clf(m, 4, 2);
  DifferentiableClassifier& base = clf;
  const auto z = base.logits_batch({{0.1, 0.7, 0.3, 0.9},
                                    {0.2, 0.4, 0.6, 0.8},
                                    {0.9, 0.1, 0.5, 0.3}});
  EXPECT_EQ(z.size(), 3u);
  EXPECT_EQ(counts.infer, 1);
  EXPECT_EQ(counts.forward, 0);
}

// ---------------------------------------------------------------------------
// Metrics

TEST(Metrics, ConfusionCounts) {
  const std::vector<std::uint8_t> pred = {1, 1, 0, 0, 1};
  const std::vector<std::uint8_t> actual = {1, 0, 0, 1, 1};
  const auto m = confusion_k(2, pred, actual);
  EXPECT_EQ(m.at(1, 1), 2u);  // true positives
  EXPECT_EQ(m.at(0, 1), 1u);  // false positives
  EXPECT_EQ(m.at(1, 0), 1u);  // false negatives
  EXPECT_EQ(m.at(0, 0), 1u);  // true negatives
  EXPECT_DOUBLE_EQ(m.accuracy(), 0.6);
  EXPECT_DOUBLE_EQ(m.fnr(1), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(m.fpr(1), 0.5);
}

TEST(Metrics, DegenerateDenominators) {
  MultiConfusion m(2);  // all zero
  EXPECT_EQ(m.accuracy(), 0.0);
  EXPECT_EQ(m.fnr(1), 0.0);
  EXPECT_EQ(m.fpr(1), 0.0);
  EXPECT_EQ(m.f1(1), 0.0);
}

TEST(Metrics, PrecisionRecallF1) {
  MultiConfusion m(2);
  m.at(1, 1) = 8;
  m.at(0, 1) = 2;
  m.at(1, 0) = 2;
  m.at(0, 0) = 88;
  EXPECT_DOUBLE_EQ(m.precision(1), 0.8);
  EXPECT_DOUBLE_EQ(m.recall(1), 0.8);
  EXPECT_DOUBLE_EQ(m.f1(1), 0.8);
}

TEST(Metrics, SizeMismatchThrows) {
  EXPECT_THROW(confusion_k(2, {1}, {1, 0}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Trainer edge cases

TEST(Trainer, EmptyDatasetThrows) {
  Model m = make_mlp_baseline(4, 2);
  EXPECT_THROW(train(m, LabeledData{}, TrainConfig{}), std::invalid_argument);
}

// A zero batch size would never advance the epoch loop; both the
// whole-batch (threads 1) and the chunked (threads 2) path reject it before
// any batch runs.
TEST(Trainer, ZeroBatchSizeRejectedOnBothPaths) {
  Rng rng(53);
  const auto data = make_toy_data(20, 4, rng);
  for (std::size_t threads : {1u, 2u}) {
    Model m = make_mlp_baseline(4, 2);
    TrainConfig cfg;
    cfg.epochs = 1;
    cfg.batch_size = 0;
    cfg.threads = threads;
    try {
      train(m, data, cfg);
      ADD_FAILURE() << "threads " << threads << ": no exception";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("batch_size"), std::string::npos)
          << "threads " << threads << ": " << e.what();
    }
  }
}

TEST(Trainer, EarlyStopShortensRun) {
  Rng rng(51);
  auto data = make_toy_data(100, 6, rng);
  Model m = make_mlp_baseline(6, 2);
  Rng wrng(10);
  m.init(wrng);
  TrainConfig cfg;
  cfg.epochs = 500;
  cfg.early_stop_loss = 0.2;
  const auto stats = train(m, data, cfg);
  EXPECT_LT(stats.epoch_losses.size(), 500u);
  EXPECT_LT(stats.final_loss, 0.2);
}

TEST(Trainer, LossDecreasesOnAverage) {
  Rng rng(61);
  auto data = make_toy_data(150, 8, rng);
  Model m = make_mlp_baseline(8, 2);
  Rng wrng(11);
  m.init(wrng);
  TrainConfig cfg;
  cfg.epochs = 30;
  const auto stats = train(m, data, cfg);
  EXPECT_LT(stats.epoch_losses.back(), stats.epoch_losses.front());
}

}  // namespace
