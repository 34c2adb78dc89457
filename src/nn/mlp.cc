#include "nn/mlp.h"

#include <algorithm>

#include "common/check.h"
#include "common/parallel.h"
#include "common/row_kernels.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace enld {

namespace {

/// This thread's block scratch, at least `floats` long. It grows with the
/// widest model the thread has run, never with a pass's row count.
float* BlockScratch(size_t floats) {
  thread_local std::vector<float> scratch;
  if (scratch.size() < floats) scratch.resize(floats);
  return scratch.data();
}

}  // namespace

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
  auto linear = [&](size_t i, bool relu) {
    auto layer =
        rng == nullptr
            ? std::make_unique<LinearLayer>(layer_dims_[i],
                                            layer_dims_[i + 1], relu)
            : std::make_unique<LinearLayer>(layer_dims_[i],
                                            layer_dims_[i + 1], *rng, relu);
    linears_.push_back(layer.get());
    layers_.push_back(std::move(layer));
  };
  for (size_t i = 0; i + 2 < layer_dims_.size(); ++i) {
    linear(i, /*relu=*/true);
    if (dropout_rate_ > 0.0) {
      layers_.push_back(
          std::make_unique<DropoutLayer>(dropout_rate_, rng->NextUInt64()));
    }
  }
  linear(layer_dims_.size() - 2, /*relu=*/false);
  tape_.resize(layers_.size());
}

void MlpModel::SetTraining(bool training) {
  for (auto& layer : layers_) layer->SetTraining(training);
}

void MlpModel::Infer(const Matrix& inputs,
                     const InferenceOutputs& outputs) const {
  ENLD_CHECK_EQ(inputs.cols(), input_dim());
  const size_t rows = inputs.rows();
  const size_t classes = layer_dims_.back();
  if (outputs.logits != nullptr) outputs.logits->Reset(rows, classes);
  if (outputs.probs != nullptr) outputs.probs->Reset(rows, classes);
  if (outputs.features != nullptr) {
    outputs.features->Reset(rows, feature_dim());
  }
  if (outputs.predicted != nullptr) outputs.predicted->assign(rows, 0);
  // A features-only pass stops at the feature tap.
  const bool want_logits = outputs.logits != nullptr ||
                           outputs.probs != nullptr ||
                           outputs.predicted != nullptr;
  const size_t depth = want_logits ? linears_.size() : linears_.size() - 1;
  const size_t widest =
      *std::max_element(layer_dims_.begin() + 1, layer_dims_.end());
  const size_t half = kInferenceBlockRows * widest;

  ParallelFor(0, rows, kInferenceBlockRows, [&](size_t lo, size_t hi) {
    const size_t n = hi - lo;
    // Two ping-pong halves: layer i writes half i % 2 and reads the
    // other, unless its output is one the caller asked for.
    float* scratch = BlockScratch(2 * half);
    const float* in = inputs.Row(lo);
    size_t stride = input_dim();
    for (size_t i = 0; i < depth; ++i) {
      float* out = scratch + (i % 2) * half;
      if (i + 2 == linears_.size() && outputs.features != nullptr) {
        out = outputs.features->Row(lo);
      } else if (i + 1 == linears_.size() && outputs.logits != nullptr) {
        out = outputs.logits->Row(lo);
      }
      linears_[i]->ForwardRows(in, stride, n, out);
      in = out;
      stride = layer_dims_[i + 1];
    }
    if (!want_logits) return;
    // `in` holds the block's logits.
    if (outputs.probs != nullptr) {
      SoftmaxRowsKernel(in, outputs.probs->Row(lo), n, classes);
    }
    if (outputs.predicted != nullptr) {
      ArgMaxRowsKernel(in, n, classes, outputs.predicted->data() + lo);
    }
  });
}

void MlpModel::Forward(const Matrix& inputs, Matrix* logits,
                       Matrix* features) const {
  Infer(inputs, {.logits = logits, .features = features});
}

Matrix MlpModel::Probabilities(const Matrix& inputs) const {
  Matrix probs;
  Infer(inputs, {.probs = &probs});
  return probs;
}

Matrix MlpModel::Features(const Matrix& inputs) const {
  Matrix features;
  Infer(inputs, {.features = &features});
  return features;
}

std::vector<int> MlpModel::Predict(const Matrix& inputs,
                                   Matrix* features) const {
  std::vector<int> predicted;
  Infer(inputs, {.features = features, .predicted = &predicted});
  return predicted;
}

double MlpModel::TrainStep(const Matrix& inputs, const Matrix& soft_targets,
                           Optimizer* optimizer) {
  ENLD_CHECK(optimizer != nullptr);
  ENLD_CHECK_EQ(inputs.cols(), input_dim());
  ENLD_CHECK_EQ(soft_targets.cols(), static_cast<size_t>(num_classes()));

  SetTraining(true);
  const Matrix* current = &inputs;
  for (size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->Forward(*current, &tape_[i]);
    current = &tape_[i];
  }

  Matrix grad;
  const double loss = SoftmaxCrossEntropy(*current, soft_targets, &grad);

  for (auto& layer : layers_) layer->ZeroGrads();
  // Back through the tape: layer i read tape_[i - 1] (the inputs for
  // i = 0) and wrote tape_[i].
  Matrix grad_in;
  for (size_t i = layers_.size(); i-- > 0;) {
    const Matrix& in = i == 0 ? inputs : tape_[i - 1];
    // Nothing consumes the gradient with respect to the inputs.
    layers_[i]->Backward(in, tape_[i], grad, i == 0 ? nullptr : &grad_in);
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
