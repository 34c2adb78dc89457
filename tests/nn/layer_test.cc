#include "nn/layer.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

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

/// Reinterprets a float's bits, so +0/-0 and NaN payloads differ.
uint32_t Bits(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

::testing::AssertionResult BitEqual(const Matrix& got, const Matrix& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return ::testing::AssertionFailure() << "shape differs";
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (Bits(got.data()[i]) != Bits(want.data()[i])) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << got.data()[i] << " vs "
             << want.data()[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// Numerical gradient check: perturb each parameter/input and compare the
/// finite-difference loss delta with the backward-pass gradient. With
/// `relu`, every pre-activation of the fixed seed sits at least 0.05 from
/// 0 (asserted), so no finite difference crosses the kink, and some are
/// negative, so the mask is exercised.
void CheckGradients(bool relu) {
  Rng rng(3);
  LinearLayer layer(3, 2, rng, relu);
  const Matrix input = RandomMatrix(4, 3, rng);
  const Matrix targets = OneHot({0, 1, 0, 1}, 2);
  if (relu) {
    Rng same(3);
    LinearLayer linear(3, 2, same);
    Matrix z;
    linear.Forward(input, &z);
    bool any_negative = false;
    for (size_t i = 0; i < z.size(); ++i) {
      ASSERT_GT(std::fabs(z.data()[i]), 0.05f) << "pre-activation " << i;
      any_negative = any_negative || z.data()[i] < 0.0f;
    }
    ASSERT_TRUE(any_negative);
  }

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
  layer.Backward(input, logits, grad_logits, &grad_input);

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

TEST(LinearLayerTest, GradientCheck) { CheckGradients(/*relu=*/false); }

TEST(LinearLayerTest, GradientCheckWithRelu) { CheckGradients(/*relu=*/true); }

/// Sets a 1-input, 4-output layer's parameters so that, for the input 1,
/// its pre-activations are -1, 0, NaN and 2.5.
void SetReluProbe(LinearLayer* layer) {
  auto params = layer->Params();
  Matrix& w = *params[0].value;
  Matrix& b = *params[1].value;
  w(0, 0) = -1.0f; w(0, 1) = 0.0f; w(0, 2) = 1.0f; w(0, 3) = 2.5f;
  b(0, 0) = 0.0f; b(0, 1) = 0.0f;
  b(0, 2) = std::numeric_limits<float>::quiet_NaN();
  b(0, 3) = 0.0f;
}

TEST(LinearLayerTest, FusedReluGivesPositiveZeroForNonPositive) {
  Rng rng(7);
  LinearLayer layer(1, 4, rng, /*relu=*/true);
  SetReluProbe(&layer);
  const Matrix input(1, 1, 1.0f);
  Matrix output;
  layer.Forward(input, &output);
  EXPECT_EQ(Bits(output(0, 0)), Bits(0.0f));  // Negative.
  EXPECT_EQ(Bits(output(0, 1)), Bits(0.0f));  // Zero.
  EXPECT_EQ(Bits(output(0, 2)), Bits(0.0f));  // NaN.
  EXPECT_EQ(output(0, 3), 2.5f);
}

/// Only the positive pre-activation passes dY: the masked elements get a
/// zero gradient even where dY is NaN or infinite.
TEST(LinearLayerTest, FusedReluZeroesMaskedGradient) {
  Rng rng(8);
  LinearLayer layer(1, 4, rng, /*relu=*/true);
  SetReluProbe(&layer);
  const Matrix input(1, 1, 1.0f);
  Matrix output;
  layer.Forward(input, &output);
  Matrix grad_out(1, 4, 1.0f);
  grad_out(0, 0) = std::numeric_limits<float>::quiet_NaN();
  grad_out(0, 2) = std::numeric_limits<float>::infinity();
  grad_out(0, 3) = 2.0f;
  Matrix grad_in;
  layer.ZeroGrads();
  layer.Backward(input, output, grad_out, &grad_in);
  const auto params = layer.Params();
  const Matrix& gw = *params[0].grad;
  const Matrix& gb = *params[1].grad;
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(Bits(gw(0, c)), Bits(0.0f)) << "dW column " << c;
    EXPECT_EQ(Bits(gb(0, c)), Bits(0.0f)) << "db column " << c;
  }
  EXPECT_EQ(gw(0, 3), 2.0f);
  EXPECT_EQ(gb(0, 3), 2.0f);
  EXPECT_EQ(grad_in(0, 0), 5.0f);  // dY(0, 3) * w(0, 3).
}

/// The fused layer has the bits of a Linear layer followed by a separate
/// ReLU, forward and backward (the ReLU's dX = z > 0 ? dY : 0).
TEST(LinearLayerTest, FusedReluEqualsLinearThenRelu) {
  Rng rng(9);
  LinearLayer fused(16, 20, rng, /*relu=*/true);
  Rng same(9);
  LinearLayer linear(16, 20, same);
  const Matrix input = RandomMatrix(9, 16, rng);
  const Matrix grad_out = RandomMatrix(9, 20, rng);

  Matrix output;
  fused.Forward(input, &output);
  Matrix z;
  linear.Forward(input, &z);
  Matrix relu = z;
  Matrix grad_z = grad_out;
  for (size_t i = 0; i < z.size(); ++i) {
    relu.data()[i] = z.data()[i] > 0.0f ? z.data()[i] : 0.0f;
    grad_z.data()[i] = z.data()[i] > 0.0f ? grad_out.data()[i] : 0.0f;
  }
  EXPECT_TRUE(BitEqual(output, relu));

  Matrix grad_in, want_grad_in;
  fused.ZeroGrads();
  fused.Backward(input, output, grad_out, &grad_in);
  linear.ZeroGrads();
  linear.Backward(input, z, grad_z, &want_grad_in);
  EXPECT_TRUE(BitEqual(grad_in, want_grad_in));
  const auto got = fused.Params();
  const auto want = linear.Params();
  ASSERT_EQ(got.size(), want.size());
  for (size_t p = 0; p < got.size(); ++p) {
    EXPECT_TRUE(BitEqual(*got[p].value, *want[p].value)) << "param " << p;
    EXPECT_TRUE(BitEqual(*got[p].grad, *want[p].grad)) << "grad " << p;
  }
}

TEST(LayerTest, ZeroGradsClearsAccumulators) {
  Rng rng(4);
  LinearLayer layer(2, 2, rng);
  const Matrix input = RandomMatrix(3, 2, rng);
  Matrix output;
  layer.Forward(input, &output);
  Matrix grad_out(3, 2, 1.0f);
  Matrix grad_in;
  layer.Backward(input, output, grad_out, &grad_in);
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
  layer.Backward(input, output, grad_out, &grad_in);
  const float once = layer.Params()[0].grad->At(0, 0);
  layer.Forward(input, &output);
  layer.Backward(input, output, grad_out, &grad_in);
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
  with.Backward(input, output, grad_out, &grad_in);
  without.ZeroGrads();
  without.Forward(input, &output);
  without.Backward(input, output, grad_out, /*grad_input=*/nullptr);
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
