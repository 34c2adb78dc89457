#ifndef ENLD_NN_MLP_H_
#define ENLD_NN_MLP_H_

#include <memory>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "nn/layer.h"

namespace enld {

/// Multilayer perceptron classifier with a *feature tap*: the activations
/// entering the final linear (softmax) layer are exposed as the feature
/// representation M̂(x, θ) the paper uses for contrastive sampling and
/// Topofilter. Softmax confidences M(x, θ) come from `Probabilities`.
///
/// This is the stand-in for the paper's convolutional backbones; see
/// DESIGN.md §2 for the substitution argument.
class MlpModel {
 public:
  /// `layer_dims` = {input, hidden..., classes}; at least one hidden layer.
  /// Weights are He-initialized from `rng`. When `dropout_rate` > 0 an
  /// inverted-dropout layer follows every hidden activation (active only
  /// inside TrainStep).
  MlpModel(const std::vector<size_t>& layer_dims, Rng& rng,
           double dropout_rate = 0.0);

  /// A model of `layer_dims` holding `weights` (a GetWeights() of that
  /// architecture), built without drawing an initialization; no dropout.
  /// Same weights, hence same outputs, as constructing from an Rng and
  /// then calling SetWeights.
  MlpModel(const std::vector<size_t>& layer_dims,
           const std::vector<float>& weights);

  MlpModel(const MlpModel&) = delete;
  MlpModel& operator=(const MlpModel&) = delete;

  size_t input_dim() const { return layer_dims_.front(); }
  size_t feature_dim() const { return layer_dims_[layer_dims_.size() - 2]; }
  int num_classes() const { return static_cast<int>(layer_dims_.back()); }
  const std::vector<size_t>& layer_dims() const { return layer_dims_; }
  double dropout_rate() const { return dropout_rate_; }

  /// Forward pass; writes logits and, if non-null, the penultimate features.
  void Forward(const Matrix& inputs, Matrix* logits,
               Matrix* features = nullptr);

  /// Softmax confidences M(x, θ) for every input row.
  Matrix Probabilities(const Matrix& inputs);

  /// Penultimate-layer features M̂(x, θ) for every input row.
  Matrix Features(const Matrix& inputs);

  /// argmax M(x, θ) per row; from the same forward pass, also the
  /// penultimate features when `features` is non-null.
  std::vector<int> Predict(const Matrix& inputs, Matrix* features = nullptr);

  /// One optimizer step on a batch against soft targets; returns the batch
  /// loss. Gradients are zeroed, accumulated and applied inside; dropout is
  /// active only for the duration of the call.
  double TrainStep(const Matrix& inputs, const Matrix& soft_targets,
                   class Optimizer* optimizer);

  /// Flattened copy of all parameters (for best-model snapshots).
  std::vector<float> GetWeights() const;

  /// Restores parameters from a GetWeights() snapshot of the same
  /// architecture.
  void SetWeights(const std::vector<float>& weights);

  /// All trainable parameters in stable order.
  std::vector<ParamRef> Params();

 private:
  /// Linear(+ReLU) (+Dropout) per hidden layer, then the classifier
  /// Linear; He-initialized from `rng`, or zeroed when it is null.
  void BuildLayers(Rng* rng);
  void SetTraining(bool training);

  std::vector<size_t> layer_dims_;
  double dropout_rate_ = 0.0;
  std::vector<std::unique_ptr<Layer>> layers_;
  // The activation tape: activations_[i] is layer i's output from the last
  // Forward (the last layer writes the caller's logits instead). Backward
  // reads it; later Forward calls reuse the storage.
  std::vector<Matrix> activations_;
};

}  // namespace enld

#endif  // ENLD_NN_MLP_H_
