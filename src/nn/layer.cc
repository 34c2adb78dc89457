#include "nn/layer.h"

#include <cmath>

#include "common/check.h"

namespace enld {

void Layer::ZeroGrads() {
  for (ParamRef p : Params()) p.grad->Fill(0.0f);
}

LinearLayer::LinearLayer(size_t in_dim, size_t out_dim, Rng& rng)
    : weights_(in_dim, out_dim),
      bias_(1, out_dim, 0.0f),
      grad_weights_(in_dim, out_dim),
      grad_bias_(1, out_dim) {
  ENLD_CHECK_GT(in_dim, 0u);
  ENLD_CHECK_GT(out_dim, 0u);
  // He-normal: std = sqrt(2 / fan_in); suits the ReLU stacks used here.
  const double stddev = std::sqrt(2.0 / static_cast<double>(in_dim));
  for (size_t r = 0; r < in_dim; ++r) {
    for (size_t c = 0; c < out_dim; ++c) {
      weights_(r, c) = static_cast<float>(rng.Gaussian(0.0, stddev));
    }
  }
}

void LinearLayer::Forward(const Matrix& input, Matrix* output) {
  ENLD_CHECK_EQ(input.cols(), weights_.rows());
  cached_input_ = input;
  MatMul(input, weights_, output);
  AddRowBroadcast(output, bias_.Row(0));
}

void LinearLayer::Backward(const Matrix& grad_output, Matrix* grad_input) {
  ENLD_CHECK_EQ(grad_output.rows(), cached_input_.rows());
  ENLD_CHECK_EQ(grad_output.cols(), weights_.cols());
  // dW += X^T * dY; db += colsum(dY); dX = dY * W^T.
  MatMulAt(cached_input_, grad_output, &grad_weights_, /*accumulate=*/true);
  const std::vector<float> db = ColumnSums(grad_output);
  for (size_t c = 0; c < db.size(); ++c) grad_bias_(0, c) += db[c];
  if (grad_input != nullptr) MatMulBt(grad_output, weights_, grad_input);
}

std::vector<ParamRef> LinearLayer::Params() {
  return {{&weights_, &grad_weights_}, {&bias_, &grad_bias_}};
}

void ReluLayer::Forward(const Matrix& input, Matrix* output) {
  cached_input_ = input;
  output->Reset(input.rows(), input.cols());
  const float* in = input.data();
  float* out = output->data();
  for (size_t i = 0; i < input.size(); ++i) {
    out[i] = in[i] > 0.0f ? in[i] : 0.0f;
  }
}

void ReluLayer::Backward(const Matrix& grad_output, Matrix* grad_input) {
  ENLD_CHECK_EQ(grad_output.rows(), cached_input_.rows());
  ENLD_CHECK_EQ(grad_output.cols(), cached_input_.cols());
  if (grad_input == nullptr) return;
  grad_input->Reset(grad_output.rows(), grad_output.cols());
  const float* go = grad_output.data();
  const float* in = cached_input_.data();
  float* gi = grad_input->data();
  for (size_t i = 0; i < grad_output.size(); ++i) {
    gi[i] = in[i] > 0.0f ? go[i] : 0.0f;
  }
}

DropoutLayer::DropoutLayer(double rate, uint64_t seed)
    : rate_(rate), rng_(seed) {
  ENLD_CHECK_GE(rate, 0.0);
  ENLD_CHECK_LT(rate, 1.0);
}

void DropoutLayer::Forward(const Matrix& input, Matrix* output) {
  if (!training_ || rate_ == 0.0) {
    *output = input;
    mask_.Reset(0, 0);
    return;
  }
  const float scale = static_cast<float>(1.0 / (1.0 - rate_));
  mask_.Reset(input.rows(), input.cols());
  output->Reset(input.rows(), input.cols());
  const float* in = input.data();
  float* m = mask_.data();
  float* out = output->data();
  for (size_t i = 0; i < input.size(); ++i) {
    m[i] = rng_.Bernoulli(rate_) ? 0.0f : scale;
    out[i] = in[i] * m[i];
  }
}

void DropoutLayer::Backward(const Matrix& grad_output, Matrix* grad_input) {
  if (grad_input == nullptr) return;
  if (mask_.empty()) {  // Inference-mode forward: identity.
    *grad_input = grad_output;
    return;
  }
  ENLD_CHECK_EQ(grad_output.rows(), mask_.rows());
  ENLD_CHECK_EQ(grad_output.cols(), mask_.cols());
  grad_input->Reset(grad_output.rows(), grad_output.cols());
  const float* go = grad_output.data();
  const float* m = mask_.data();
  float* gi = grad_input->data();
  for (size_t i = 0; i < grad_output.size(); ++i) gi[i] = go[i] * m[i];
}

}  // namespace enld
