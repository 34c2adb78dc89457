#ifndef ENLD_NN_CONFIDENT_JOINT_H_
#define ENLD_NN_CONFIDENT_JOINT_H_

#include <vector>

#include "data/dataset.h"
#include "nn/mlp.h"

namespace enld {

/// A (num_classes x num_classes) count matrix J with
/// J[i][j] = |{x : ỹ(x) = i, predicted/estimated y*(x) = j}| — Eq. 3/4.
using JointCounts = std::vector<std::vector<double>>;

/// Estimates J on `holdout` by taking argmax M(x, θ) as the true-label
/// estimate (the paper's Eq. 4). Samples with missing labels are skipped.
JointCounts EstimateJointCounts(MlpModel* model, const Dataset& holdout);

/// The same count from argmax predictions already made, `predicted[i]`
/// for row i of `holdout`: EstimateJointCounts without its forward pass.
JointCounts CountJoint(const Dataset& holdout,
                       const std::vector<int>& predicted);

/// Confident-joint variant used by the Confident Learning baseline: a
/// sample (x, ỹ=i) is counted toward J[i][j] only if its probability of
/// class j is at least the per-class threshold t_j = mean self-confidence
/// of samples observed as j (Northcutt et al. 2021). More robust to
/// miscalibrated models than plain argmax counting.
JointCounts EstimateConfidentJoint(MlpModel* model, const Dataset& holdout);

/// Row-normalizes the joint: P̃(y* = j | ỹ = i) = J[i][j] / Σ_k J[i][k]
/// (Eq. 5). Rows with zero mass fall back to P̃(y* = i | ỹ = i) = 1 — with
/// no evidence the safest assumption is that the observed label is right.
std::vector<std::vector<double>> ConditionalFromJoint(const JointCounts& j);

}  // namespace enld

#endif  // ENLD_NN_CONFIDENT_JOINT_H_
