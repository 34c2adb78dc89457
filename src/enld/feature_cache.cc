#include "enld/feature_cache.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "common/telemetry/metrics.h"

namespace enld {

namespace {

struct CacheMetrics {
  telemetry::Counter* view_hits;
  telemetry::Counter* view_misses;
  telemetry::Counter* index_hits;
  telemetry::Counter* index_misses;
  telemetry::Counter* invalidations;
  telemetry::Gauge* model_version;

  static CacheMetrics& Get() {
    static CacheMetrics m = [] {
      auto& registry = telemetry::MetricsRegistry::Global();
      CacheMetrics out;
      out.view_hits = registry.GetCounter("cache/view_hits");
      out.view_misses = registry.GetCounter("cache/view_misses");
      out.index_hits = registry.GetCounter("cache/index_hits");
      out.index_misses = registry.GetCounter("cache/index_misses");
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

uint64_t FingerprintPositions(const std::vector<size_t>& positions) {
  uint64_t h = 1469598103934665603ull;  // FNV offset basis.
  auto mix = [&h](uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (byte * 8)) & 0xffu;
      h *= 1099511628211ull;  // FNV prime.
    }
  };
  mix(positions.size());
  for (size_t p : positions) mix(p);
  return h;
}

FeatureCache::FeatureCache() {
  CacheMetrics::Get().model_version->Set(
      static_cast<double>(model_version_));
}

bool FeatureCache::HoldsEntries() const {
  return has_view_ || !indexes_.empty();
}

void FeatureCache::BumpModelVersion() {
  if (HoldsEntries()) {
    ++stats_.invalidations;
    CacheMetrics::Get().invalidations->Increment();
  }
  has_view_ = false;
  view_ = ModelView();
  indexes_.clear();
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

std::shared_ptr<const ClassKnnIndex> FeatureCache::FindIndex(
    uint64_t version, uint64_t pool_key) {
  for (size_t i = indexes_.size(); i-- > 0;) {
    if (indexes_[i].version == version && indexes_[i].pool_key == pool_key) {
      // Move to most-recently-used (back) so replayed request streams keep
      // their entries alive past interleaved unrelated requests.
      IndexEntry entry = std::move(indexes_[i]);
      indexes_.erase(indexes_.begin() + static_cast<ptrdiff_t>(i));
      indexes_.push_back(std::move(entry));
      ++stats_.index_hits;
      CacheMetrics::Get().index_hits->Increment();
      return indexes_.back().index;
    }
  }
  ++stats_.index_misses;
  CacheMetrics::Get().index_misses->Increment();
  return nullptr;
}

void FeatureCache::StoreIndex(uint64_t version, uint64_t pool_key,
                              std::shared_ptr<const ClassKnnIndex> index) {
  for (IndexEntry& entry : indexes_) {
    if (entry.version == version && entry.pool_key == pool_key) {
      entry.index = std::move(index);
      return;
    }
  }
  if (indexes_.size() >= kMaxIndexEntries) {
    indexes_.erase(indexes_.begin());  // Least-recently-used is front.
  }
  IndexEntry entry;
  entry.version = version;
  entry.pool_key = pool_key;
  entry.index = std::move(index);
  indexes_.push_back(std::move(entry));
}

}  // namespace enld
