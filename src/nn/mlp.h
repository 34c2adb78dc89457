#ifndef ENLD_NN_MLP_H_
#define ENLD_NN_MLP_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/gemm.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "nn/layer.h"

namespace enld {

/// Rows per block of an inference pass (MlpModel::Infer): whole GEMM
/// tiles, and one block for a ~125-row increment's voting pass. A block's
/// activations stay in cache, and no pass holds a tape as tall as its
/// input. 128 measured at least even with 64 and 256 at 125, 400 and
/// 4,000 rows (docs/BENCHMARKS.md, "Blocked inference").
inline constexpr size_t kInferenceBlockRows = 128;
static_assert(kInferenceBlockRows % kGemmTileRows == 0);

/// The outputs one inference pass writes, one row per input row. Each
/// non-null member is resized by the pass; a null one is neither kept nor
/// written.
struct InferenceOutputs {
  Matrix* logits = nullptr;
  Matrix* probs = nullptr;                // Softmax M(x, θ).
  Matrix* features = nullptr;             // Penultimate M̂(x, θ).
  std::vector<int>* predicted = nullptr;  // argmax M(x, θ).
};

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

  /// The one inference loop. Streams `inputs` through the network in
  /// blocks of kInferenceBlockRows rows, reading each block's rows in place
  /// and keeping only a block-sized scratch tape, and writes the requested
  /// `outputs` row by row. Blocks are the pool's grain: at
  /// ENLD_THREADS > 1 they run concurrently, each GEMM and row kernel
  /// inline on its thread. Every row depends only on its own input row
  /// (GEMM row independence), so the bits equal one-row calls' at any
  /// thread count. Reads the model only: dropout is the identity here, so
  /// no pass touches a dropout layer.
  void Infer(const Matrix& inputs, const InferenceOutputs& outputs) const;

  /// Forward pass; writes logits and, if non-null, the penultimate features.
  void Forward(const Matrix& inputs, Matrix* logits,
               Matrix* features = nullptr) const;

  /// Softmax confidences M(x, θ) for every input row.
  Matrix Probabilities(const Matrix& inputs) const;

  /// Penultimate-layer features M̂(x, θ) for every input row.
  Matrix Features(const Matrix& inputs) const;

  /// argmax M(x, θ) per row; from the same forward pass, also the
  /// penultimate features when `features` is non-null.
  std::vector<int> Predict(const Matrix& inputs,
                           Matrix* features = nullptr) const;

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
  // The Linear layers of layers_, in order: all that inference runs.
  std::vector<const LinearLayer*> linears_;
  // TrainStep's activation tape: tape_[i] is layer i's output for the
  // batch (the last is the logits). Backward reads it; later steps reuse
  // the storage, which stays batch-sized.
  std::vector<Matrix> tape_;
};

}  // namespace enld

#endif  // ENLD_NN_MLP_H_
