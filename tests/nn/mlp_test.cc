#include "nn/mlp.h"

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/kernel_backend.h"
#include "common/parallel.h"
#include "nn/loss.h"
#include "nn/model_zoo.h"
#include "nn/optimizer.h"

namespace enld {
namespace {

Matrix XorInputs() {
  Matrix x(4, 2);
  x(0, 0) = 0; x(0, 1) = 0;
  x(1, 0) = 0; x(1, 1) = 1;
  x(2, 0) = 1; x(2, 1) = 0;
  x(3, 0) = 1; x(3, 1) = 1;
  return x;
}

TEST(MlpModelTest, ShapesAndAccessors) {
  Rng rng(1);
  MlpModel model({8, 16, 4, 3}, rng);
  EXPECT_EQ(model.input_dim(), 8u);
  EXPECT_EQ(model.feature_dim(), 4u);
  EXPECT_EQ(model.num_classes(), 3);

  Matrix inputs(5, 8, 0.5f);
  Matrix logits, features;
  model.Forward(inputs, &logits, &features);
  EXPECT_EQ(logits.rows(), 5u);
  EXPECT_EQ(logits.cols(), 3u);
  EXPECT_EQ(features.rows(), 5u);
  EXPECT_EQ(features.cols(), 4u);
}

TEST(MlpModelTest, FeaturesAreNonNegative) {
  // The feature tap sits after a ReLU.
  Rng rng(2);
  MlpModel model({4, 8, 2}, rng);
  Matrix inputs(10, 4);
  Rng data_rng(3);
  for (size_t i = 0; i < inputs.size(); ++i) {
    inputs.data()[i] = static_cast<float>(data_rng.Gaussian());
  }
  const Matrix features = model.Features(inputs);
  for (size_t i = 0; i < features.size(); ++i) {
    EXPECT_GE(features.data()[i], 0.0f);
  }
}

TEST(MlpModelTest, ProbabilitiesRowStochastic) {
  Rng rng(4);
  MlpModel model({3, 6, 4}, rng);
  Matrix inputs(7, 3, 1.0f);
  const Matrix probs = model.Probabilities(inputs);
  for (size_t r = 0; r < probs.rows(); ++r) {
    float sum = 0.0f;
    for (size_t c = 0; c < probs.cols(); ++c) sum += probs(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(MlpModelTest, PredictMatchesProbabilitiesArgmax) {
  Rng rng(5);
  MlpModel model({3, 8, 5}, rng);
  Matrix inputs(20, 3);
  Rng data_rng(6);
  for (size_t i = 0; i < inputs.size(); ++i) {
    inputs.data()[i] = static_cast<float>(data_rng.Gaussian());
  }
  EXPECT_EQ(model.Predict(inputs), ArgMaxRows(model.Probabilities(inputs)));
}

/// SetWeights on a model of another init, and the weights-only
/// constructor, both give back the same weights and the same Forward bits.
TEST(MlpModelTest, WeightsRoundTrip) {
  Rng rng(7);
  MlpModel a({4, 8, 6, 3}, rng);
  Rng rng2(99);
  MlpModel b({4, 8, 6, 3}, rng2);
  b.SetWeights(a.GetWeights());
  MlpModel c({4, 8, 6, 3}, a.GetWeights());
  EXPECT_EQ(b.GetWeights(), a.GetWeights());
  EXPECT_EQ(c.GetWeights(), a.GetWeights());
  EXPECT_EQ(c.layer_dims(), a.layer_dims());
  EXPECT_EQ(c.dropout_rate(), 0.0);

  Matrix inputs(5, 4);
  Rng data_rng(8);
  for (size_t i = 0; i < inputs.size(); ++i) {
    inputs.data()[i] = static_cast<float>(data_rng.Gaussian());
  }
  Matrix la, fa;
  a.Forward(inputs, &la, &fa);
  for (MlpModel* other : {&b, &c}) {
    Matrix lo, fo;
    other->Forward(inputs, &lo, &fo);
    ASSERT_EQ(lo.size(), la.size());
    ASSERT_EQ(fo.size(), fa.size());
    EXPECT_EQ(std::memcmp(lo.data(), la.data(), la.size() * sizeof(float)), 0);
    EXPECT_EQ(std::memcmp(fo.data(), fa.data(), fa.size() * sizeof(float)), 0);
  }
}

TEST(MlpModelTest, GetWeightsSizeIsParameterCount) {
  Rng rng(8);
  MlpModel model({4, 8, 3}, rng);
  // Linear(4,8): 4*8+8, Linear(8,3): 8*3+3.
  EXPECT_EQ(model.GetWeights().size(), 4u * 8 + 8 + 8 * 3 + 3);
  size_t total = 0;
  for (ParamRef p : model.Params()) total += p.value->size();
  EXPECT_EQ(total, model.GetWeights().size());
}

TEST(MlpModelTest, TrainStepReducesLossOnFixedBatch) {
  Rng rng(9);
  MlpModel model({2, 16, 2}, rng);
  SgdOptimizer optimizer({0.1, 0.9, 0.0});
  const Matrix x = XorInputs();
  const Matrix y = OneHot({0, 1, 1, 0}, 2);  // XOR.
  const double initial = model.TrainStep(x, y, &optimizer);
  double last = initial;
  for (int i = 0; i < 200; ++i) last = model.TrainStep(x, y, &optimizer);
  EXPECT_LT(last, initial * 0.5);
}

TEST(MlpModelTest, LearnsXorCompletely) {
  Rng rng(10);
  MlpModel model({2, 16, 2}, rng);
  SgdOptimizer optimizer({0.2, 0.9, 0.0});
  const Matrix x = XorInputs();
  const Matrix y = OneHot({0, 1, 1, 0}, 2);
  for (int i = 0; i < 500; ++i) model.TrainStep(x, y, &optimizer);
  EXPECT_EQ(model.Predict(x), (std::vector<int>{0, 1, 1, 0}));
}

TEST(MlpModelTest, DeterministicTraining) {
  auto run = [] {
    Rng rng(11);
    MlpModel model({2, 8, 2}, rng);
    SgdOptimizer optimizer({0.1, 0.9, 1e-4});
    const Matrix x = XorInputs();
    const Matrix y = OneHot({0, 1, 1, 0}, 2);
    for (int i = 0; i < 50; ++i) model.TrainStep(x, y, &optimizer);
    return model.GetWeights();
  };
  EXPECT_EQ(run(), run());
}

/// 50 SGD steps of the fine-tune MLP (batch 64, 32-128-64-100) end in the
/// same weights, bit for bit, on every kernel backend and at 1 and 4
/// threads: the backend switch and the pool size change speed only.
TEST(MlpModelTest, TrainingBitIdenticalAcrossBackendsAndThreads) {
  auto train = [] {
    Rng rng(12);
    MlpModel model({32, 128, 64, 100}, rng);
    SgdOptimizer optimizer(SgdConfig{});
    Matrix inputs(64, 32);
    std::vector<int> labels(64);
    for (int step = 0; step < 50; ++step) {
      for (size_t i = 0; i < inputs.size(); ++i) {
        inputs.data()[i] = static_cast<float>(rng.Gaussian());
      }
      for (int& label : labels) label = static_cast<int>(rng.UniformInt(100));
      model.TrainStep(inputs, OneHot(labels, 100), &optimizer);
    }
    return model.GetWeights();
  };
  const std::string saved_backend = KernelBackend();
  ASSERT_TRUE(SetKernelBackend("generic"));
  SetParallelThreads(1);
  const std::vector<float> want = train();
  for (const char* backend : {"generic", "avx2", "avx512"}) {
    if (!SetKernelBackend(backend)) continue;  // CPU without AVX2/AVX-512.
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SetParallelThreads(threads);
      const std::vector<float> got = train();
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            want.size() * sizeof(float)),
                0)
          << backend << " threads=" << threads;
    }
  }
  SetKernelBackend(saved_backend.c_str());
  SetParallelThreads(0);
}

/// Every output of one inference pass, as n rows each.
struct Inferred {
  Matrix logits;
  Matrix probs;
  Matrix features;
  std::vector<int> predicted;
};

Matrix GaussianRows(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Gaussian());
  }
  return m;
}

/// The first `rows` rows of `got` and `want` hold the same bits.
void ExpectSameLeadingRows(const Matrix& got, const Matrix& want,
                           size_t rows, const std::string& what) {
  ASSERT_EQ(got.cols(), want.cols()) << what;
  ASSERT_GE(got.rows(), rows) << what;
  ASSERT_GE(want.rows(), rows) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        rows * want.cols() * sizeof(float)),
            0)
      << what;
}

/// One pass over n rows runs them through the network in row blocks; its
/// logits, probabilities, features and predictions equal those of n
/// one-row passes, bit for bit, for n on both sides of the block size and
/// at a candidate view's 4,000 rows, on every kernel backend and at 1 and
/// 4 threads. The outputs are checked all at once and one at a time, since
/// the pass writes an unrequested output to scratch instead.
TEST(MlpModelTest, InferenceInRowBlocksMatchesRowByRow) {
  Rng rng(14);
  const MlpModel model({32, 128, 64, 100}, rng);
  constexpr size_t kBlock = kInferenceBlockRows;
  const Matrix inputs = GaussianRows(4000, 32, 15);

  const std::string saved_backend = KernelBackend();
  for (const char* backend : {"generic", "avx2", "avx512"}) {
    if (!SetKernelBackend(backend)) continue;  // CPU without AVX2/AVX-512.
    SetParallelThreads(1);
    Inferred want;
    want.logits.Reset(inputs.rows(), 100);
    want.probs.Reset(inputs.rows(), 100);
    want.features.Reset(inputs.rows(), 64);
    for (size_t r = 0; r < inputs.rows(); ++r) {
      Inferred row;
      model.Infer(inputs.SelectRows({r}), {&row.logits, &row.probs,
                                           &row.features, &row.predicted});
      std::memcpy(want.logits.Row(r), row.logits.data(), 100 * sizeof(float));
      std::memcpy(want.probs.Row(r), row.probs.data(), 100 * sizeof(float));
      std::memcpy(want.features.Row(r), row.features.data(),
                  64 * sizeof(float));
      want.predicted.push_back(row.predicted[0]);
    }
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SetParallelThreads(threads);
      for (size_t n : {size_t{1}, size_t{7}, kBlock - 1, kBlock, kBlock + 1,
                       2 * kBlock + 3, size_t{4000}}) {
        const std::string at = std::string(backend) +
                               " threads=" + std::to_string(threads) +
                               " rows=" + std::to_string(n);
        std::vector<size_t> rows(n);
        for (size_t i = 0; i < n; ++i) rows[i] = i;
        const Matrix x = inputs.SelectRows(rows);
        const std::vector<int> want_predicted(want.predicted.begin(),
                                              want.predicted.begin() + n);

        Inferred all;
        model.Infer(x, {&all.logits, &all.probs, &all.features,
                        &all.predicted});
        ASSERT_EQ(all.logits.rows(), n) << at;
        ExpectSameLeadingRows(all.logits, want.logits, n, at + " logits");
        ExpectSameLeadingRows(all.probs, want.probs, n, at + " probs");
        ExpectSameLeadingRows(all.features, want.features, n,
                              at + " features");
        EXPECT_EQ(all.predicted, want_predicted) << at;

        Matrix logits;
        model.Forward(x, &logits);
        ExpectSameLeadingRows(logits, want.logits, n, at + " Forward");
        ExpectSameLeadingRows(model.Probabilities(x), want.probs, n,
                              at + " Probabilities");
        ExpectSameLeadingRows(model.Features(x), want.features, n,
                              at + " Features");
        EXPECT_EQ(model.Predict(x), want_predicted) << at << " Predict";
      }
    }
  }
  SetKernelBackend(saved_backend.c_str());
  SetParallelThreads(0);
}

/// Dropout is the identity at inference: after a training step has drawn
/// a mask, a blocked pass at 4 threads over a model with dropout equals the
/// same weights without it. The blocks never reach the dropout layers.
TEST(MlpModelTest, BlockedInferenceSkipsDropout) {
  Rng rng(16);
  MlpModel with({32, 128, 64, 10}, rng, /*dropout_rate=*/0.5);
  SgdOptimizer optimizer(SgdConfig{});
  std::vector<int> labels(64);
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(i % 10);
  }
  with.TrainStep(GaussianRows(64, 32, 17), OneHot(labels, 10), &optimizer);
  const MlpModel without(with.layer_dims(), with.GetWeights());

  SetParallelThreads(4);
  const Matrix x = GaussianRows(1000, 32, 18);
  Inferred a, b;
  with.Infer(x, {&a.logits, &a.probs, &a.features, &a.predicted});
  without.Infer(x, {&b.logits, &b.probs, &b.features, &b.predicted});
  SetParallelThreads(0);
  ExpectSameLeadingRows(a.logits, b.logits, x.rows(), "logits");
  ExpectSameLeadingRows(a.probs, b.probs, x.rows(), "probs");
  ExpectSameLeadingRows(a.features, b.features, x.rows(), "features");
  EXPECT_EQ(a.predicted, b.predicted);
}

TEST(ModelZooTest, BackboneDims) {
  const auto resnet110 =
      BackboneLayerDims(Backbone::kResNet110Sim, 32, 100);
  EXPECT_EQ(resnet110.front(), 32u);
  EXPECT_EQ(resnet110.back(), 100u);
  const auto densenet =
      BackboneLayerDims(Backbone::kDenseNet121Sim, 32, 100);
  // DenseNet-121-sim is deeper than ResNet-110-sim.
  EXPECT_GT(densenet.size(), resnet110.size());
}

TEST(ModelZooTest, Names) {
  EXPECT_STREQ(BackboneName(Backbone::kResNet110Sim), "resnet110-sim");
  EXPECT_STREQ(BackboneName(Backbone::kDenseNet121Sim), "densenet121-sim");
  EXPECT_STREQ(BackboneName(Backbone::kResNet164Sim), "resnet164-sim");
}

TEST(ModelZooTest, MakeBackboneModelWorks) {
  Rng rng(12);
  for (Backbone b : {Backbone::kResNet110Sim, Backbone::kDenseNet121Sim,
                     Backbone::kResNet164Sim}) {
    auto model = MakeBackboneModel(b, 16, 10, rng);
    EXPECT_EQ(model->input_dim(), 16u);
    EXPECT_EQ(model->num_classes(), 10);
  }
}

TEST(OptimizerTest, StepMovesWeightsAgainstGradient) {
  Rng rng(13);
  MlpModel model({2, 4, 2}, rng);
  auto params = model.Params();
  params[0].grad->Fill(1.0f);
  const float before = params[0].value->At(0, 0);
  SgdOptimizer optimizer({0.1, 0.0, 0.0});
  optimizer.Step(params);
  EXPECT_FLOAT_EQ(params[0].value->At(0, 0), before - 0.1f);
}

TEST(OptimizerTest, MomentumAccumulates) {
  Matrix w(1, 1, 0.0f);
  Matrix g(1, 1, 1.0f);
  SgdOptimizer optimizer({0.1, 0.9, 0.0});
  std::vector<ParamRef> params = {{&w, &g}};
  optimizer.Step(params);
  const float first_step = -w(0, 0);
  w(0, 0) = 0.0f;
  optimizer.Step(params);
  // Second step = momentum * v + lr * g > first step.
  EXPECT_GT(-w(0, 0), first_step);
}

TEST(OptimizerTest, WeightDecayShrinksWeights) {
  Matrix w(1, 1, 10.0f);
  Matrix g(1, 1, 0.0f);
  SgdOptimizer optimizer({0.1, 0.0, 0.1});
  std::vector<ParamRef> params = {{&w, &g}};
  optimizer.Step(params);
  EXPECT_LT(w(0, 0), 10.0f);
}

TEST(OptimizerTest, LearningRateAccessors) {
  SgdOptimizer optimizer({0.5, 0.9, 0.0});
  EXPECT_DOUBLE_EQ(optimizer.learning_rate(), 0.5);
  optimizer.set_learning_rate(0.25);
  EXPECT_DOUBLE_EQ(optimizer.learning_rate(), 0.25);
}

}  // namespace
}  // namespace enld
