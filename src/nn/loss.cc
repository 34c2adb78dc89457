#include "nn/loss.h"

#include <cmath>

#include "common/check.h"
#include "common/row_kernels.h"

namespace enld {

Matrix OneHot(const std::vector<int>& labels, int num_classes) {
  ENLD_CHECK_GT(num_classes, 0);
  Matrix out(labels.size(), num_classes, 0.0f);
  for (size_t i = 0; i < labels.size(); ++i) {
    ENLD_CHECK_GE(labels[i], 0);
    ENLD_CHECK_LT(labels[i], num_classes);
    out(i, labels[i]) = 1.0f;
  }
  return out;
}

double SoftmaxCrossEntropy(const Matrix& logits, const Matrix& targets,
                           Matrix* grad_logits) {
  ENLD_CHECK_EQ(logits.rows(), targets.rows());
  ENLD_CHECK_EQ(logits.cols(), targets.cols());
  ENLD_CHECK_GT(logits.rows(), 0u);

  // The softmax goes straight into the gradient's storage, and one pass
  // turns it into d(mean CE)/d(logits) = (softmax - target) / n while it
  // sums the loss.
  Matrix probs;  // Used only when the caller wants no gradient.
  Matrix* work = grad_logits != nullptr ? grad_logits : &probs;
  SoftmaxRows(logits, work);
  const size_t n = logits.rows();
  const double total =
      CrossEntropyGradKernel(work->data(), targets.data(), n, logits.cols(),
                             1.0f / static_cast<float>(n));
  return total / static_cast<double>(n);
}

double SoftmaxCrossEntropy(const Matrix& logits,
                           const std::vector<int>& labels, int num_classes,
                           Matrix* grad_logits) {
  return SoftmaxCrossEntropy(logits, OneHot(labels, num_classes),
                             grad_logits);
}

std::vector<double> PerSampleCrossEntropy(const Matrix& logits,
                                          const std::vector<int>& labels) {
  ENLD_CHECK_EQ(logits.rows(), labels.size());
  Matrix probs;
  SoftmaxRows(logits, &probs);
  std::vector<double> out(labels.size(), 0.0);
  for (size_t r = 0; r < labels.size(); ++r) {
    if (labels[r] < 0) continue;
    ENLD_CHECK_LT(static_cast<size_t>(labels[r]), logits.cols());
    out[r] = -std::log(
        std::max(static_cast<double>(probs(r, labels[r])), 1e-12));
  }
  return out;
}

}  // namespace enld
