#ifndef ENLD_NN_LAYER_H_
#define ENLD_NN_LAYER_H_

#include <memory>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"

namespace enld {

/// A trainable parameter: the value matrix and its gradient accumulator.
struct ParamRef {
  Matrix* value;
  Matrix* grad;
};

/// One differentiable layer of the minibatch network substrate. Layers
/// keep no activations: the caller holds each Forward's input and output
/// (MlpModel's activation tape) and hands them back to Backward. Only
/// dropout keeps per-batch state, its mask.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes `output` from `input` (batch rows).
  virtual void Forward(const Matrix& input, Matrix* output) = 0;

  /// Given the `input` and `output` of the matching Forward call and
  /// d(loss)/d(output), accumulates parameter gradients and computes
  /// d(loss)/d(input) into `grad_input`, or skips it when `grad_input` is
  /// null (the first layer's input gradient is never used).
  virtual void Backward(const Matrix& input, const Matrix& output,
                        const Matrix& grad_output, Matrix* grad_input) = 0;

  /// Trainable parameters (empty for stateless layers). Stable order.
  virtual std::vector<ParamRef> Params() { return {}; }

  /// Switches between training and inference behaviour (dropout). The
  /// default is inference; stateless layers ignore it.
  virtual void SetTraining(bool training) { (void)training; }

  /// Sets all parameter gradients to zero.
  void ZeroGrads();
};

/// Fully connected layer: output = input * W + b, or with `relu`
/// max(input * W + b, 0) — Linear+ReLU in one pass over the product.
/// W is (in x out); b is (1 x out).
class LinearLayer : public Layer {
 public:
  /// He-normal weights drawn from `rng`, zero bias.
  LinearLayer(size_t in_dim, size_t out_dim, Rng& rng, bool relu = false);

  /// Zero weights and bias, no draws: for a caller that sets the
  /// parameters next (MlpModel's weights-only constructor).
  LinearLayer(size_t in_dim, size_t out_dim, bool relu);

  void Forward(const Matrix& input, Matrix* output) override;
  void Backward(const Matrix& input, const Matrix& output,
                const Matrix& grad_output, Matrix* grad_input) override;
  std::vector<ParamRef> Params() override;

  /// Forward over `rows` rows of in_dim() floats, row r at
  /// `input + r * input_stride`, into `output`'s rows of out_dim() floats:
  /// one GEMM and one bias pass on the calling thread, the same bits as
  /// Forward. Reads the layer only (MlpModel::Infer's blocks).
  void ForwardRows(const float* input, size_t input_stride, size_t rows,
                   float* output) const;

  size_t in_dim() const { return weights_.rows(); }
  size_t out_dim() const { return weights_.cols(); }

 private:
  bool relu_;
  Matrix weights_;
  Matrix bias_;  // 1 x out.
  Matrix grad_weights_;
  Matrix grad_bias_;
  Matrix masked_grad_;  // Backward's ReLU-masked dY, reused across calls.
};

/// Inverted dropout: during training each activation is zeroed with
/// probability `rate` and survivors are scaled by 1/(1-rate); at inference
/// the layer is the identity.
class DropoutLayer : public Layer {
 public:
  /// Requires 0 <= rate < 1.
  DropoutLayer(double rate, uint64_t seed);

  void Forward(const Matrix& input, Matrix* output) override;
  /// Reads only `grad_output` and the mask of the last Forward.
  void Backward(const Matrix& input, const Matrix& output,
                const Matrix& grad_output, Matrix* grad_input) override;
  void SetTraining(bool training) override { training_ = training; }

  double rate() const { return rate_; }

 private:
  double rate_;
  Rng rng_;
  Matrix mask_;
  bool training_ = false;
};

}  // namespace enld

#endif  // ENLD_NN_LAYER_H_
