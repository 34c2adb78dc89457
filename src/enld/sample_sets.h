#ifndef ENLD_ENLD_SAMPLE_SETS_H_
#define ENLD_ENLD_SAMPLE_SETS_H_

#include <vector>

#include "data/dataset.h"
#include "nn/mlp.h"

namespace enld {

/// Definition 1 helpers: the high-quality set H (model agrees with the
/// observed label) and the ambiguous set A (model disagrees). Both return
/// positions into `dataset`; missing-label samples belong to neither.

/// Positions where argmax M(x, θ) == ỹ.
std::vector<size_t> HighQualityPositions(MlpModel* model,
                                         const Dataset& dataset);

/// Positions where argmax M(x, θ) != ỹ.
std::vector<size_t> AmbiguousPositions(MlpModel* model,
                                       const Dataset& dataset);

/// Positions where `predicted` (argmax M(x, θ) per row of `dataset`,
/// already computed) != ỹ.
std::vector<size_t> AmbiguousPositions(const std::vector<int>& predicted,
                                       const Dataset& dataset);

/// Filters `high_quality` (positions into `dataset`) by the paper's
/// confidence criterion: keep x only if its predicted-class probability is
/// at least the mean predicted-class probability over the high-quality
/// samples sharing that predicted label. `probs` are the model's softmax
/// outputs for all of `dataset`.
/// `strictness` scales the threshold: 1.0 is the paper's mean rule; larger
/// values keep only the most confidently-predicted samples.
std::vector<size_t> FilterHighQualityByConfidence(
    const Matrix& probs, const std::vector<int>& predicted,
    const std::vector<size_t>& high_quality, double strictness = 1.0);

/// Restricts `positions` (into `dataset`) to samples whose observed label
/// is in `label_set` (given as a membership mask over classes).
std::vector<size_t> RestrictToLabelSet(const Dataset& dataset,
                                       const std::vector<size_t>& positions,
                                       const std::vector<bool>& label_mask);

/// Builds a membership mask over `num_classes` classes from a label list.
std::vector<bool> LabelMask(const std::vector<int>& labels, int num_classes);

}  // namespace enld

#endif  // ENLD_ENLD_SAMPLE_SETS_H_
