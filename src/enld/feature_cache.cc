#include "enld/feature_cache.h"

#include <algorithm>
#include <utility>

#include "common/telemetry/metrics.h"

namespace enld {

namespace {

struct CacheMetrics {
  telemetry::Counter* view_hits;
  telemetry::Counter* view_misses;
  telemetry::Counter* invalidations;
  telemetry::Gauge* model_version;

  static CacheMetrics& Get() {
    static CacheMetrics m = [] {
      auto& registry = telemetry::MetricsRegistry::Global();
      CacheMetrics out;
      out.view_hits = registry.GetCounter("cache/view_hits");
      out.view_misses = registry.GetCounter("cache/view_misses");
      out.invalidations = registry.GetCounter("cache/invalidations");
      out.model_version = registry.GetGauge("cache/model_version");
      return out;
    }();
    return m;
  }
};

}  // namespace

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

FeatureCache::FeatureCache() {
  CacheMetrics::Get().model_version->Set(
      static_cast<double>(model_version_));
}

void FeatureCache::BumpModelVersion() {
  if (has_view_) {
    ++stats_.invalidations;
    CacheMetrics::Get().invalidations->Increment();
  }
  has_view_ = false;
  view_ = ModelView();
  ++model_version_;
  CacheMetrics::Get().model_version->Set(
      static_cast<double>(model_version_));
}

const ModelView* FeatureCache::FindView(uint64_t version) {
  if (has_view_ && view_version_ == version) {
    ++stats_.view_hits;
    CacheMetrics::Get().view_hits->Increment();
    return &view_;
  }
  ++stats_.view_misses;
  CacheMetrics::Get().view_misses->Increment();
  return nullptr;
}

const ModelView* FeatureCache::StoreView(uint64_t version, ModelView view) {
  view_ = std::move(view);
  view_version_ = version;
  has_view_ = true;
  return &view_;
}

}  // namespace enld
