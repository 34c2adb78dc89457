#include "enld/sample_sets.h"

#include <algorithm>

#include "common/check.h"

namespace enld {

std::vector<size_t> HighQualityPositions(MlpModel* model,
                                         const Dataset& dataset) {
  ENLD_CHECK(model != nullptr);
  std::vector<size_t> out;
  if (dataset.empty()) return out;
  const std::vector<int> predicted = model->Predict(dataset.features);
  for (size_t i = 0; i < dataset.size(); ++i) {
    const int observed = dataset.observed_labels[i];
    if (observed != kMissingLabel && predicted[i] == observed) {
      out.push_back(i);
    }
  }
  return out;
}

std::vector<size_t> AmbiguousPositions(MlpModel* model,
                                       const Dataset& dataset) {
  ENLD_CHECK(model != nullptr);
  if (dataset.empty()) return {};
  return AmbiguousPositions(model->Predict(dataset.features), dataset);
}

std::vector<size_t> AmbiguousPositions(const std::vector<int>& predicted,
                                       const Dataset& dataset) {
  ENLD_CHECK_EQ(predicted.size(), dataset.size());
  std::vector<size_t> out;
  for (size_t i = 0; i < dataset.size(); ++i) {
    const int observed = dataset.observed_labels[i];
    if (observed != kMissingLabel && predicted[i] != observed) {
      out.push_back(i);
    }
  }
  return out;
}

std::vector<size_t> FilterHighQualityByConfidence(
    const Matrix& probs, const std::vector<int>& predicted,
    const std::vector<size_t>& high_quality, double strictness) {
  ENLD_CHECK_EQ(probs.rows(), predicted.size());
  if (high_quality.empty()) return {};
  const int classes = static_cast<int>(probs.cols());

  // Per predicted label over the high-quality set: mean predicted-class
  // probability and the 75th-percentile value.
  std::vector<std::vector<double>> per_class(classes);
  for (size_t pos : high_quality) {
    per_class[predicted[pos]].push_back(probs(pos, predicted[pos]));
  }
  std::vector<double> threshold(classes, 0.0);
  for (int c = 0; c < classes; ++c) {
    auto& values = per_class[c];
    if (values.empty()) continue;
    double mean = 0.0;
    for (double v : values) mean += v;
    mean /= static_cast<double>(values.size());
    std::sort(values.begin(), values.end());
    // Cap the scaled threshold at the class's 75th percentile so that
    // strictness can never shrink a class below a quarter of its
    // high-quality samples (with a confident model, strictness * mean
    // could otherwise exceed every probability and empty the class).
    const double p75 = values[(values.size() * 3) / 4 == values.size()
                                  ? values.size() - 1
                                  : (values.size() * 3) / 4];
    threshold[c] = std::min(strictness * mean, p75);
  }

  std::vector<size_t> out;
  out.reserve(high_quality.size());
  for (size_t pos : high_quality) {
    const int p = predicted[pos];
    if (probs(pos, p) >= threshold[p]) out.push_back(pos);
  }
  return out;
}

std::vector<size_t> RestrictToLabelSet(const Dataset& dataset,
                                       const std::vector<size_t>& positions,
                                       const std::vector<bool>& label_mask) {
  std::vector<size_t> out;
  out.reserve(positions.size());
  for (size_t pos : positions) {
    const int y = dataset.observed_labels[pos];
    if (y != kMissingLabel && label_mask[y]) out.push_back(pos);
  }
  return out;
}

std::vector<bool> LabelMask(const std::vector<int>& labels, int num_classes) {
  std::vector<bool> mask(num_classes, false);
  for (int y : labels) {
    ENLD_CHECK_GE(y, 0);
    ENLD_CHECK_LT(y, num_classes);
    mask[y] = true;
  }
  return mask;
}

}  // namespace enld
