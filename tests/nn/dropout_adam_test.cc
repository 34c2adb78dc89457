#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "nn/layer.h"
#include "nn/loss.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"

namespace enld {
namespace {

TEST(DropoutLayerTest, IdentityAtInference) {
  DropoutLayer dropout(0.5, 1);
  Matrix input(2, 3, 2.0f);
  Matrix output;
  dropout.Forward(input, &output);  // Training mode off by default.
  for (size_t i = 0; i < input.size(); ++i) {
    EXPECT_EQ(output.data()[i], 2.0f);
  }
}

TEST(DropoutLayerTest, DropsApproximatelyRateFraction) {
  DropoutLayer dropout(0.3, 2);
  dropout.SetTraining(true);
  Matrix input(100, 100, 1.0f);
  Matrix output;
  dropout.Forward(input, &output);
  size_t zeros = 0;
  for (size_t i = 0; i < output.size(); ++i) {
    if (output.data()[i] == 0.0f) ++zeros;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / output.size(), 0.3, 0.02);
}

TEST(DropoutLayerTest, SurvivorsScaledForUnbiasedExpectation) {
  DropoutLayer dropout(0.5, 3);
  dropout.SetTraining(true);
  Matrix input(50, 50, 1.0f);
  Matrix output;
  dropout.Forward(input, &output);
  double sum = 0.0;
  for (size_t i = 0; i < output.size(); ++i) sum += output.data()[i];
  // E[output] = input, so the mean should stay near 1.
  EXPECT_NEAR(sum / output.size(), 1.0, 0.1);
  for (size_t i = 0; i < output.size(); ++i) {
    const float v = output.data()[i];
    EXPECT_TRUE(v == 0.0f || v == 2.0f);
  }
}

TEST(DropoutLayerTest, BackwardUsesSameMask) {
  DropoutLayer dropout(0.5, 4);
  dropout.SetTraining(true);
  Matrix input(1, 32, 1.0f);
  Matrix output;
  dropout.Forward(input, &output);
  Matrix grad_out(1, 32, 1.0f);
  Matrix grad_in;
  dropout.Backward(input, output, grad_out, &grad_in);
  for (size_t i = 0; i < output.size(); ++i) {
    EXPECT_EQ(grad_in.data()[i], output.data()[i]);  // grad * mask.
  }
}

TEST(DropoutLayerTest, ZeroRateIsIdentityEvenInTraining) {
  DropoutLayer dropout(0.0, 5);
  dropout.SetTraining(true);
  Matrix input(3, 3, 7.0f);
  Matrix output;
  dropout.Forward(input, &output);
  for (size_t i = 0; i < input.size(); ++i) {
    EXPECT_EQ(output.data()[i], 7.0f);
  }
}

TEST(MlpDropoutTest, InferenceIsDeterministicTrainingIsNot) {
  Rng rng(6);
  MlpModel model({4, 16, 3}, rng, /*dropout_rate=*/0.4);
  EXPECT_DOUBLE_EQ(model.dropout_rate(), 0.4);
  Matrix inputs(4, 4, 0.5f);
  // Inference passes are identical (dropout inactive outside TrainStep).
  const Matrix a = model.Probabilities(inputs);
  const Matrix b = model.Probabilities(inputs);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a.data()[i], b.data()[i]);
}

TEST(MlpDropoutTest, StillLearnsSeparableTask) {
  SyntheticConfig config;
  config.num_classes = 4;
  config.samples_per_class = 60;
  config.feature_dim = 8;
  config.class_separation = 8.0;
  config.seed = 7;
  const Dataset data = GenerateSynthetic(config);
  Rng rng(8);
  MlpModel model({8, 16, 8, 4}, rng, /*dropout_rate=*/0.2);
  TrainConfig train;
  train.epochs = 20;
  train.seed = 9;
  TrainModel(&model, data, nullptr, train);
  EXPECT_GT(AccuracyAgainstTrue(&model, data), 0.9);
}

TEST(AdamOptimizerTest, StepMovesAgainstGradient) {
  Matrix w(1, 1, 1.0f);
  Matrix g(1, 1, 1.0f);
  AdamConfig config;
  config.learning_rate = 0.1;
  AdamOptimizer adam(config);
  std::vector<ParamRef> params = {{&w, &g}};
  adam.Step(params);
  EXPECT_LT(w(0, 0), 1.0f);
}

TEST(AdamOptimizerTest, FirstStepSizeIsLearningRate) {
  // With bias correction, the very first Adam step is ~lr * sign(grad).
  Matrix w(1, 1, 0.0f);
  Matrix g(1, 1, 3.0f);
  AdamConfig config;
  config.learning_rate = 0.01;
  AdamOptimizer adam(config);
  std::vector<ParamRef> params = {{&w, &g}};
  adam.Step(params);
  EXPECT_NEAR(w(0, 0), -0.01, 1e-4);
}

TEST(AdamOptimizerTest, LearningRateAccessors) {
  AdamOptimizer adam(AdamConfig{});
  adam.set_learning_rate(0.5);
  EXPECT_DOUBLE_EQ(adam.learning_rate(), 0.5);
}

TEST(AdamTrainerTest, TrainsThroughTrainModel) {
  SyntheticConfig config;
  config.num_classes = 4;
  config.samples_per_class = 50;
  config.feature_dim = 8;
  config.class_separation = 8.0;
  config.seed = 10;
  const Dataset data = GenerateSynthetic(config);
  Rng rng(11);
  MlpModel model({8, 16, 4}, rng);
  TrainConfig train;
  train.optimizer = OptimizerKind::kAdam;
  train.adam.learning_rate = 0.005;
  train.epochs = 20;
  train.seed = 12;
  TrainModel(&model, data, nullptr, train);
  EXPECT_GT(AccuracyAgainstTrue(&model, data), 0.9);
}

TEST(AdamTrainerTest, PolymorphicTrainStep) {
  Rng rng(13);
  MlpModel model({2, 8, 2}, rng);
  AdamConfig config;
  config.learning_rate = 0.05;
  AdamOptimizer adam(config);
  Matrix x(4, 2);
  x(0, 0) = 0; x(0, 1) = 0;
  x(1, 0) = 0; x(1, 1) = 1;
  x(2, 0) = 1; x(2, 1) = 0;
  x(3, 0) = 1; x(3, 1) = 1;
  const Matrix y = OneHot({0, 1, 1, 0}, 2);
  const double initial = model.TrainStep(x, y, &adam);
  double last = initial;
  for (int i = 0; i < 300; ++i) last = model.TrainStep(x, y, &adam);
  EXPECT_LT(last, initial * 0.5);
}

}  // namespace
}  // namespace enld
