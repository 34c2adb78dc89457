#ifndef ENLD_ENLD_MODEL_VIEW_H_
#define ENLD_ENLD_MODEL_VIEW_H_

#include <vector>

#include "common/matrix.h"
#include "data/dataset.h"
#include "nn/mlp.h"

namespace enld {

/// Model outputs over a fixed dataset: softmax probabilities, penultimate
/// features and the argmax prediction per row.
struct ModelView {
  Matrix probs;
  Matrix features;
  std::vector<int> predicted;

  bool empty() const { return predicted.empty(); }
};

/// Computes the view in one MlpModel::Infer pass: each row block's
/// softmax, features and argmax go straight into the view, and no logits
/// matrix is built. Every row of every member depends only on the same
/// row of `dataset` — the MLP has no cross-row coupling at inference — so
/// a view over a subset of rows equals the row-selection of the full view,
/// bit for bit. The framework's candidate view (EnldFramework,
/// docs/ARCHITECTURE.md "Candidate-view contract") relies on exactly this
/// property.
ModelView ComputeModelView(const MlpModel* model, const Dataset& dataset);

/// Selects rows of a full view: result row i == full row rows[i], bitwise
/// (see the row-independence note on ComputeModelView).
ModelView SelectViewRows(const ModelView& full, const std::vector<size_t>& rows);

}  // namespace enld

#endif  // ENLD_ENLD_MODEL_VIEW_H_
