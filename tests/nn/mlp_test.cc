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
