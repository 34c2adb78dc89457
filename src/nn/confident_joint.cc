#include "nn/confident_joint.h"

#include "common/check.h"
#include "common/parallel.h"

namespace enld {

namespace {

/// Samples per chunk for the parallel joint-count reductions. The partials
/// hold integer counts stored in doubles, so chunked accumulation is exact
/// and the totals are identical at any thread count (and to the sequential
/// one-pass loop).
constexpr size_t kCountGrain = 1024;

JointCounts AddJoint(JointCounts acc, JointCounts partial) {
  for (size_t i = 0; i < acc.size(); ++i) {
    for (size_t j = 0; j < acc[i].size(); ++j) acc[i][j] += partial[i][j];
  }
  return acc;
}

}  // namespace

JointCounts EstimateJointCounts(MlpModel* model, const Dataset& holdout) {
  ENLD_CHECK(model != nullptr);
  ENLD_CHECK_EQ(holdout.num_classes, model->num_classes());
  if (holdout.empty()) return CountJoint(holdout, {});
  return CountJoint(holdout, model->Predict(holdout.features));
}

JointCounts CountJoint(const Dataset& holdout,
                       const std::vector<int>& predicted) {
  ENLD_CHECK_EQ(predicted.size(), holdout.size());
  const int classes = holdout.num_classes;
  JointCounts joint(classes, std::vector<double>(classes, 0.0));
  if (holdout.empty()) return joint;
  return ParallelReduce(
      0, holdout.size(), kCountGrain, std::move(joint),
      [&](size_t lo, size_t hi) {
        JointCounts local(classes, std::vector<double>(classes, 0.0));
        for (size_t i = lo; i < hi; ++i) {
          const int observed = holdout.observed_labels[i];
          if (observed == kMissingLabel) continue;
          local[observed][predicted[i]] += 1.0;
        }
        return local;
      },
      AddJoint);
}

JointCounts EstimateConfidentJoint(MlpModel* model, const Dataset& holdout) {
  ENLD_CHECK(model != nullptr);
  ENLD_CHECK_EQ(holdout.num_classes, model->num_classes());
  const int classes = model->num_classes();
  JointCounts joint(classes, std::vector<double>(classes, 0.0));
  if (holdout.empty()) return joint;

  const Matrix probs = model->Probabilities(holdout.features);

  // Per-class threshold: mean predicted probability of class j over samples
  // observed as j.
  std::vector<double> threshold(classes, 0.0);
  std::vector<size_t> count(classes, 0);
  for (size_t i = 0; i < holdout.size(); ++i) {
    const int observed = holdout.observed_labels[i];
    if (observed == kMissingLabel) continue;
    threshold[observed] += probs(i, observed);
    ++count[observed];
  }
  for (int c = 0; c < classes; ++c) {
    threshold[c] = count[c] > 0 ? threshold[c] / count[c] : 1.0;
  }

  // Count a sample toward (observed, j*) where j* maximizes probability
  // among classes whose threshold the sample clears. Samples are scanned in
  // parallel chunks; the per-sample argmax touches only row i, so the
  // counts are exact regardless of thread count.
  return ParallelReduce(
      0, holdout.size(), kCountGrain, std::move(joint),
      [&](size_t lo, size_t hi) {
        JointCounts local(classes, std::vector<double>(classes, 0.0));
        for (size_t i = lo; i < hi; ++i) {
          const int observed = holdout.observed_labels[i];
          if (observed == kMissingLabel) continue;
          int best = -1;
          float best_prob = 0.0f;
          for (int j = 0; j < classes; ++j) {
            const float p = probs(i, j);
            if (p >= threshold[j] && p > best_prob) {
              best = j;
              best_prob = p;
            }
          }
          if (best >= 0) local[observed][best] += 1.0;
        }
        return local;
      },
      AddJoint);
}

std::vector<std::vector<double>> ConditionalFromJoint(const JointCounts& j) {
  ENLD_CHECK(!j.empty());
  const size_t classes = j.size();
  std::vector<std::vector<double>> cond(classes,
                                        std::vector<double>(classes, 0.0));
  for (size_t i = 0; i < classes; ++i) {
    ENLD_CHECK_EQ(j[i].size(), classes);
    double row_sum = 0.0;
    for (double v : j[i]) {
      ENLD_CHECK_GE(v, 0.0);
      row_sum += v;
    }
    if (row_sum > 0.0) {
      for (size_t k = 0; k < classes; ++k) cond[i][k] = j[i][k] / row_sum;
    } else {
      cond[i][i] = 1.0;
    }
  }
  return cond;
}

}  // namespace enld
