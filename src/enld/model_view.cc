#include "enld/model_view.h"

#include <algorithm>

namespace enld {

ModelView ComputeModelView(MlpModel* model, const Dataset& dataset) {
  ModelView view;
  if (dataset.empty()) return view;
  Matrix logits;
  model->Forward(dataset.features, &logits, &view.features);
  SoftmaxRows(logits, &view.probs);
  view.predicted = ArgMaxRows(logits);
  return view;
}

ModelView SelectViewRows(const ModelView& full,
                         const std::vector<size_t>& rows) {
  ModelView out;
  if (rows.empty()) return out;
  out.probs.Reset(rows.size(), full.probs.cols());
  out.features.Reset(rows.size(), full.features.cols());
  out.predicted.resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const size_t r = rows[i];
    std::copy(full.probs.Row(r), full.probs.Row(r) + full.probs.cols(),
              out.probs.Row(i));
    std::copy(full.features.Row(r),
              full.features.Row(r) + full.features.cols(),
              out.features.Row(i));
    out.predicted[i] = full.predicted[r];
  }
  return out;
}

}  // namespace enld
