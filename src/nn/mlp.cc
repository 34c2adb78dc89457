#include "nn/mlp.h"

#include "common/check.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace enld {

MlpModel::MlpModel(const std::vector<size_t>& layer_dims, Rng& rng,
                   double dropout_rate)
    : layer_dims_(layer_dims), dropout_rate_(dropout_rate) {
  ENLD_CHECK_GE(dropout_rate, 0.0);
  ENLD_CHECK_LT(dropout_rate, 1.0);
  BuildLayers(&rng);
}

MlpModel::MlpModel(const std::vector<size_t>& layer_dims,
                   const std::vector<float>& weights)
    : layer_dims_(layer_dims) {
  BuildLayers(nullptr);
  SetWeights(weights);
}

void MlpModel::BuildLayers(Rng* rng) {
  ENLD_CHECK_GE(layer_dims_.size(), 3u);  // input, >=1 hidden, classes.
  for (size_t d : layer_dims_) ENLD_CHECK_GT(d, 0u);
  auto linear = [&](size_t i, bool relu) -> std::unique_ptr<Layer> {
    if (rng == nullptr) {
      return std::make_unique<LinearLayer>(layer_dims_[i],
                                           layer_dims_[i + 1], relu);
    }
    return std::make_unique<LinearLayer>(layer_dims_[i], layer_dims_[i + 1],
                                         *rng, relu);
  };
  for (size_t i = 0; i + 2 < layer_dims_.size(); ++i) {
    layers_.push_back(linear(i, /*relu=*/true));
    if (dropout_rate_ > 0.0) {
      layers_.push_back(
          std::make_unique<DropoutLayer>(dropout_rate_, rng->NextUInt64()));
    }
  }
  layers_.push_back(linear(layer_dims_.size() - 2, /*relu=*/false));
  activations_.resize(layers_.size());
}

void MlpModel::SetTraining(bool training) {
  for (auto& layer : layers_) layer->SetTraining(training);
}

void MlpModel::Forward(const Matrix& inputs, Matrix* logits,
                       Matrix* features) {
  ENLD_CHECK_EQ(inputs.cols(), input_dim());
  const Matrix* current = &inputs;
  for (size_t i = 0; i < layers_.size(); ++i) {
    Matrix* out = (i + 1 == layers_.size()) ? logits : &activations_[i];
    layers_[i]->Forward(*current, out);
    current = out;
  }
  if (features != nullptr) {
    // The input to the final linear layer (the last hidden activation).
    *features = activations_[layers_.size() - 2];
  }
}

Matrix MlpModel::Probabilities(const Matrix& inputs) {
  Matrix logits;
  Forward(inputs, &logits);
  Matrix probs;
  SoftmaxRows(logits, &probs);
  return probs;
}

Matrix MlpModel::Features(const Matrix& inputs) {
  Matrix logits;
  Matrix features;
  Forward(inputs, &logits, &features);
  return features;
}

std::vector<int> MlpModel::Predict(const Matrix& inputs, Matrix* features) {
  Matrix logits;
  Forward(inputs, &logits, features);
  return ArgMaxRows(logits);
}

double MlpModel::TrainStep(const Matrix& inputs, const Matrix& soft_targets,
                           Optimizer* optimizer) {
  ENLD_CHECK(optimizer != nullptr);
  ENLD_CHECK_EQ(soft_targets.cols(), static_cast<size_t>(num_classes()));

  SetTraining(true);
  Matrix logits;
  Forward(inputs, &logits);

  Matrix grad;
  const double loss = SoftmaxCrossEntropy(logits, soft_targets, &grad);

  for (auto& layer : layers_) layer->ZeroGrads();
  // Back through the tape: layer i read activations_[i - 1] (the inputs
  // for i = 0) and wrote activations_[i] (the logits for the last).
  Matrix grad_in;
  for (size_t i = layers_.size(); i-- > 0;) {
    const Matrix& in = i == 0 ? inputs : activations_[i - 1];
    const Matrix& out = i + 1 == layers_.size() ? logits : activations_[i];
    // Nothing consumes the gradient with respect to the inputs.
    layers_[i]->Backward(in, out, grad, i == 0 ? nullptr : &grad_in);
    std::swap(grad, grad_in);
  }
  optimizer->Step(Params());
  SetTraining(false);
  return loss;
}

std::vector<float> MlpModel::GetWeights() const {
  std::vector<float> out;
  for (const auto& layer : layers_) {
    for (ParamRef p : const_cast<Layer&>(*layer).Params()) {
      const float* d = p.value->data();
      out.insert(out.end(), d, d + p.value->size());
    }
  }
  return out;
}

void MlpModel::SetWeights(const std::vector<float>& weights) {
  size_t offset = 0;
  for (auto& layer : layers_) {
    for (ParamRef p : layer->Params()) {
      ENLD_CHECK_LE(offset + p.value->size(), weights.size());
      std::copy(weights.begin() + offset,
                weights.begin() + offset + p.value->size(),
                p.value->data());
      offset += p.value->size();
    }
  }
  ENLD_CHECK_EQ(offset, weights.size());
}

std::vector<ParamRef> MlpModel::Params() {
  std::vector<ParamRef> out;
  for (auto& layer : layers_) {
    for (ParamRef p : layer->Params()) out.push_back(p);
  }
  return out;
}

}  // namespace enld
