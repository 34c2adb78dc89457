#ifndef ENLD_EVAL_METRICS_H_
#define ENLD_EVAL_METRICS_H_

#include <vector>

#include "data/dataset.h"
#include "enld/detector.h"

namespace enld {

/// Precision / recall / F1 of a detected noisy set against ground truth
/// (Section V-A3).
struct DetectionMetrics {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  /// Raw counts for diagnostics.
  size_t true_positives = 0;
  size_t detected = 0;
  size_t actual_noisy = 0;
};

/// Computes metrics of `detected_noisy` (positions into `dataset`) against
/// the dataset's ground-truth noisy set. Conventions: empty detected set
/// with an empty ground-truth set scores precision = recall = f1 = 1.
DetectionMetrics EvaluateDetection(const Dataset& dataset,
                                   const std::vector<size_t>& detected_noisy);

/// Element-wise mean of a list of metrics (macro average over incremental
/// datasets, the paper's reporting unit). Empty input -> zeros.
DetectionMetrics AverageMetrics(const std::vector<DetectionMetrics>& all);

/// Accuracy of recovered labels against true labels over the missing-label
/// positions (micro-averaged multi-class F1 == accuracy) — Section V-H.
/// `recovered` is parallel to the dataset (kMissingLabel = unrecovered,
/// which counts as wrong). Returns 0 when no positions are given.
double PseudoLabelAccuracy(const Dataset& dataset,
                           const std::vector<int>& recovered,
                           const std::vector<size_t>& missing_positions);

/// Detection metrics restricted to samples with a given *observed* label —
/// diagnostic for class-conditional failure modes. Entry c covers the
/// samples observed as class c; classes with no samples get zero metrics
/// with actual_noisy == detected == 0.
std::vector<DetectionMetrics> PerObservedClassMetrics(
    const Dataset& dataset, const std::vector<size_t>& detected_noisy);

}  // namespace enld

#endif  // ENLD_EVAL_METRICS_H_
