#include "nn/layer.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "nn/loss.h"

namespace enld {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, Rng& rng, double scale = 1.0) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      m(r, c) = static_cast<float>(rng.Gaussian(0.0, scale));
    }
  }
  return m;
}

TEST(LinearLayerTest, ForwardMatchesManualComputation) {
  Rng rng(1);
  LinearLayer layer(2, 3, rng);
  // Overwrite parameters with known values.
  auto params = layer.Params();
  Matrix& w = *params[0].value;
  Matrix& b = *params[1].value;
  w(0, 0) = 1.0f; w(0, 1) = 2.0f; w(0, 2) = 3.0f;
  w(1, 0) = -1.0f; w(1, 1) = 0.5f; w(1, 2) = 0.0f;
  b(0, 0) = 0.1f; b(0, 1) = 0.2f; b(0, 2) = 0.3f;

  Matrix input(1, 2);
  input(0, 0) = 2.0f;
  input(0, 1) = 4.0f;
  Matrix output;
  layer.Forward(input, &output);
  EXPECT_FLOAT_EQ(output(0, 0), 2.0f - 4.0f + 0.1f);
  EXPECT_FLOAT_EQ(output(0, 1), 4.0f + 2.0f + 0.2f);
  EXPECT_FLOAT_EQ(output(0, 2), 6.0f + 0.3f);
}

TEST(LinearLayerTest, HeInitializationScale) {
  Rng rng(2);
  LinearLayer layer(100, 50, rng);
  const Matrix& w = *layer.Params()[0].value;
  double sum_sq = 0.0;
  for (size_t i = 0; i < w.size(); ++i) {
    sum_sq += static_cast<double>(w.data()[i]) * w.data()[i];
  }
  const double variance = sum_sq / w.size();
  EXPECT_NEAR(variance, 2.0 / 100.0, 0.005);
  // Bias starts at zero.
  const Matrix& b = *layer.Params()[1].value;
  for (size_t i = 0; i < b.size(); ++i) EXPECT_EQ(b.data()[i], 0.0f);
}

/// Numerical gradient check: perturb each parameter/input and compare the
/// finite-difference loss delta with the backward-pass gradient.
TEST(LinearLayerTest, GradientCheck) {
  Rng rng(3);
  LinearLayer layer(3, 2, rng);
  const Matrix input = RandomMatrix(4, 3, rng);
  const Matrix targets = OneHot({0, 1, 0, 1}, 2);

  auto loss_of = [&](const Matrix& in) {
    Matrix logits;
    layer.Forward(in, &logits);
    return SoftmaxCrossEntropy(logits, targets, nullptr);
  };

  // Analytic gradients.
  Matrix logits;
  layer.Forward(input, &logits);
  Matrix grad_logits;
  SoftmaxCrossEntropy(logits, targets, &grad_logits);
  layer.ZeroGrads();
  Matrix grad_input;
  layer.Backward(grad_logits, &grad_input);

  const float eps = 1e-3f;

  // Check input gradient entries.
  for (size_t r = 0; r < input.rows(); ++r) {
    for (size_t c = 0; c < input.cols(); ++c) {
      Matrix plus = input;
      plus(r, c) += eps;
      Matrix minus = input;
      minus(r, c) -= eps;
      const double numeric = (loss_of(plus) - loss_of(minus)) / (2.0 * eps);
      EXPECT_NEAR(numeric, grad_input(r, c), 2e-2)
          << "input grad at (" << r << "," << c << ")";
    }
  }

  // Check a handful of weight gradients.
  auto params = layer.Params();
  Matrix& w = *params[0].value;
  const Matrix& gw = *params[0].grad;
  layer.Forward(input, &logits);  // Refresh cache after perturbations.
  for (size_t r = 0; r < w.rows(); ++r) {
    for (size_t c = 0; c < w.cols(); ++c) {
      const float original = w(r, c);
      w(r, c) = original + eps;
      const double up = loss_of(input);
      w(r, c) = original - eps;
      const double down = loss_of(input);
      w(r, c) = original;
      EXPECT_NEAR((up - down) / (2.0 * eps), gw(r, c), 2e-2)
          << "weight grad at (" << r << "," << c << ")";
    }
  }
}

TEST(ReluLayerTest, ForwardClampsNegatives) {
  ReluLayer relu;
  Matrix input(1, 4);
  input(0, 0) = -1.0f;
  input(0, 1) = 0.0f;
  input(0, 2) = 2.5f;
  input(0, 3) = -0.1f;
  Matrix output;
  relu.Forward(input, &output);
  EXPECT_FLOAT_EQ(output(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(output(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(output(0, 2), 2.5f);
  EXPECT_FLOAT_EQ(output(0, 3), 0.0f);
}

TEST(ReluLayerTest, BackwardMasksGradient) {
  ReluLayer relu;
  Matrix input(1, 3);
  input(0, 0) = -1.0f;
  input(0, 1) = 1.0f;
  input(0, 2) = 3.0f;
  Matrix output;
  relu.Forward(input, &output);
  Matrix grad_out(1, 3, 1.0f);
  Matrix grad_in;
  relu.Backward(grad_out, &grad_in);
  EXPECT_FLOAT_EQ(grad_in(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(grad_in(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(grad_in(0, 2), 1.0f);
}

TEST(ReluLayerTest, HasNoParams) {
  ReluLayer relu;
  EXPECT_TRUE(relu.Params().empty());
}

TEST(LayerTest, ZeroGradsClearsAccumulators) {
  Rng rng(4);
  LinearLayer layer(2, 2, rng);
  const Matrix input = RandomMatrix(3, 2, rng);
  Matrix output;
  layer.Forward(input, &output);
  Matrix grad_out(3, 2, 1.0f);
  Matrix grad_in;
  layer.Backward(grad_out, &grad_in);
  bool any_nonzero = false;
  for (ParamRef p : layer.Params()) {
    for (size_t i = 0; i < p.grad->size(); ++i) {
      if (p.grad->data()[i] != 0.0f) any_nonzero = true;
    }
  }
  EXPECT_TRUE(any_nonzero);
  layer.ZeroGrads();
  for (ParamRef p : layer.Params()) {
    for (size_t i = 0; i < p.grad->size(); ++i) {
      EXPECT_EQ(p.grad->data()[i], 0.0f);
    }
  }
}

TEST(LayerTest, BackwardAccumulatesAcrossCalls) {
  Rng rng(5);
  LinearLayer layer(2, 2, rng);
  const Matrix input = RandomMatrix(2, 2, rng);
  Matrix output, grad_in;
  Matrix grad_out(2, 2, 1.0f);

  layer.ZeroGrads();
  layer.Forward(input, &output);
  layer.Backward(grad_out, &grad_in);
  const float once = layer.Params()[0].grad->At(0, 0);
  layer.Forward(input, &output);
  layer.Backward(grad_out, &grad_in);
  EXPECT_FLOAT_EQ(layer.Params()[0].grad->At(0, 0), 2.0f * once);
}

/// A null `grad_input` skips the input gradient only: the parameter
/// gradients are the same bits as with it.
TEST(LayerTest, BackwardWithoutInputGradientKeepsParamGrads) {
  Rng rng(6);
  LinearLayer with(5, 3, rng);
  Rng same(6);
  LinearLayer without(5, 3, same);
  const Matrix input = RandomMatrix(4, 5, rng);
  const Matrix grad_out = RandomMatrix(4, 3, rng);
  Matrix output, grad_in;
  with.ZeroGrads();
  with.Forward(input, &output);
  with.Backward(grad_out, &grad_in);
  without.ZeroGrads();
  without.Forward(input, &output);
  without.Backward(grad_out, /*grad_input=*/nullptr);
  const auto expected = with.Params();
  const auto got = without.Params();
  ASSERT_EQ(got.size(), expected.size());
  for (size_t p = 0; p < got.size(); ++p) {
    ASSERT_EQ(got[p].grad->size(), expected[p].grad->size());
    EXPECT_EQ(std::memcmp(got[p].grad->data(), expected[p].grad->data(),
                          got[p].grad->size() * sizeof(float)),
              0)
        << "param " << p;
  }
}

}  // namespace
}  // namespace enld
