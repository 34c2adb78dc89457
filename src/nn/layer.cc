#include "nn/layer.h"

#include <cmath>

#include "common/check.h"
#include "common/gemm.h"
#include "common/row_kernels.h"

namespace enld {

void Layer::ZeroGrads() {
  for (ParamRef p : Params()) p.grad->Fill(0.0f);
}

LinearLayer::LinearLayer(size_t in_dim, size_t out_dim, bool relu)
    : relu_(relu),
      weights_(in_dim, out_dim),
      bias_(1, out_dim, 0.0f),
      grad_weights_(in_dim, out_dim),
      grad_bias_(1, out_dim) {
  ENLD_CHECK_GT(in_dim, 0u);
  ENLD_CHECK_GT(out_dim, 0u);
}

LinearLayer::LinearLayer(size_t in_dim, size_t out_dim, Rng& rng, bool relu)
    : LinearLayer(in_dim, out_dim, relu) {
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
  MatMul(input, weights_, output);
  // z = sum + bias, with relu then z > 0 ? z : 0, in one pass.
  AddBiasKernel(output->data(), output->rows(), output->cols(), bias_.data(),
                relu_);
}

void LinearLayer::ForwardRows(const float* input, size_t input_stride,
                              size_t rows, float* output) const {
  Gemm(rows, out_dim(), in_dim(), input, input_stride, 1, weights_.data(),
       out_dim(), output, out_dim(), /*accumulate=*/false);
  AddBiasKernel(output, rows, out_dim(), bias_.data(), relu_);
}

void LinearLayer::Backward(const Matrix& input, const Matrix& output,
                           const Matrix& grad_output, Matrix* grad_input) {
  ENLD_CHECK_EQ(input.cols(), weights_.rows());
  ENLD_CHECK_EQ(grad_output.rows(), input.rows());
  ENLD_CHECK_EQ(grad_output.cols(), weights_.cols());
  const Matrix* grad_z = &grad_output;
  if (relu_) {
    // dZ = dY where z > 0, else 0. The output is > 0 at exactly those
    // elements (a NaN or -0 z gave +0).
    ENLD_CHECK_EQ(output.rows(), grad_output.rows());
    ENLD_CHECK_EQ(output.cols(), grad_output.cols());
    masked_grad_.Reset(grad_output.rows(), grad_output.cols());
    ReluMaskKernel(output.data(), grad_output.data(), masked_grad_.data(),
                   grad_output.size());
    grad_z = &masked_grad_;
  }
  // dW += X^T * dZ; db += colsum(dZ); dX = dZ * W^T.
  MatMulAt(input, *grad_z, &grad_weights_, /*accumulate=*/true);
  AddColumnSumsKernel(grad_z->data(), grad_z->rows(), grad_z->cols(),
                      grad_bias_.data());
  if (grad_input != nullptr) MatMulBt(*grad_z, weights_, grad_input);
}

std::vector<ParamRef> LinearLayer::Params() {
  return {{&weights_, &grad_weights_}, {&bias_, &grad_bias_}};
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

void DropoutLayer::Backward(const Matrix& /*input*/, const Matrix& /*output*/,
                            const Matrix& grad_output, Matrix* grad_input) {
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
