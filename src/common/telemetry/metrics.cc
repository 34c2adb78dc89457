#include "common/telemetry/metrics.h"

#include "common/check.h"

namespace enld {
namespace telemetry {

namespace {

/// Pins each thread to one shard; consecutive threads spread round-robin.
size_t ThisThreadShard() {
  static std::atomic<size_t> next{0};
  thread_local size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kCounterShards;
  return shard;
}

void AtomicAddDouble(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

void Counter::Add(uint64_t delta) {
  shards_[ThisThreadShard()].value.fetch_add(delta,
                                             std::memory_order_relaxed);
}

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (Shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)),
      buckets_(upper_bounds_.size() + 1) {
  for (size_t i = 1; i < upper_bounds_.size(); ++i) {
    ENLD_CHECK_GT(upper_bounds_[i], upper_bounds_[i - 1]);
  }
}

void Histogram::Observe(double value) {
  if (!(value >= 0.0)) {  // Rejects NaN and negatives in one comparison.
    static Counter* invalid =
        MetricsRegistry::Global().GetCounter("telemetry/invalid_observations");
    invalid->Increment();
    return;
  }
  size_t bucket = upper_bounds_.size();  // Overflow unless a bound fits.
  for (size_t i = 0; i < upper_bounds_.size(); ++i) {
    if (value <= upper_bounds_[i]) {
      bucket = i;
      break;
    }
  }
  buckets_[bucket].Increment();
  count_.Increment();
  AtomicAddDouble(sum_, value);
}

void Histogram::Reset() {
  for (Counter& b : buckets_) b.Reset();
  count_.Reset();
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> LogScaleBuckets(double min_bound, double max_bound,
                                    double factor) {
  ENLD_CHECK_GT(min_bound, 0.0);
  ENLD_CHECK_GT(max_bound, min_bound);
  ENLD_CHECK_GT(factor, 1.0);
  std::vector<double> bounds;
  for (double b = min_bound; b <= max_bound; b *= factor) {
    bounds.push_back(b);
  }
  if (bounds.back() < max_bound) bounds.push_back(max_bound);
  return bounds;
}

double HistogramQuantile(const HistogramSnapshot& snapshot, double q) {
  if (snapshot.count == 0 || snapshot.upper_bounds.empty()) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation, 1-based: ceil(q * count), at least 1.
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(snapshot.count));
  if (static_cast<double>(rank) < q * static_cast<double>(snapshot.count)) {
    ++rank;
  }
  if (rank < 1) rank = 1;
  if (rank > snapshot.count) rank = snapshot.count;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < snapshot.bucket_counts.size(); ++i) {
    const uint64_t in_bucket = snapshot.bucket_counts[i];
    if (rank > cumulative + in_bucket) {
      cumulative += in_bucket;
      continue;
    }
    if (i >= snapshot.upper_bounds.size()) {
      // Overflow bucket: no upper edge to interpolate toward.
      return snapshot.upper_bounds.back();
    }
    const double lower = (i == 0) ? 0.0 : snapshot.upper_bounds[i - 1];
    const double upper = snapshot.upper_bounds[i];
    const double position =
        static_cast<double>(rank - cumulative) / static_cast<double>(in_bucket);
    return lower + position * (upper - lower);
  }
  return snapshot.upper_bounds.back();  // Inconsistent counts; stay bounded.
}

void Series::Append(double v) {
  std::lock_guard<std::mutex> lock(mu_);
  values_.push_back(v);
}

std::vector<double> Series::Values() const {
  std::lock_guard<std::mutex> lock(mu_);
  return values_;
}

void Series::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  values_.clear();
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* instance =
      new MetricsRegistry();  // Leaked: outlives exit races.
  return *instance;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(std::move(upper_bounds));
  }
  return slot.get();
}

Series* MetricsRegistry::GetSeries(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = series_[name];
  if (slot == nullptr) slot = std::make_unique<Series>();
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot out;
  for (const auto& [name, counter] : counters_) {
    out.counters[name] = counter->Value();
  }
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot h;
    h.upper_bounds = histogram->upper_bounds();
    h.bucket_counts.resize(h.upper_bounds.size() + 1);
    for (size_t i = 0; i < h.bucket_counts.size(); ++i) {
      h.bucket_counts[i] = histogram->BucketCount(i);
    }
    h.count = histogram->TotalCount();
    h.sum = histogram->Sum();
    out.histograms[name] = std::move(h);
  }
  for (const auto& [name, series] : series_) {
    out.series[name] = series->Values();
  }
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
  for (auto& [name, series] : series_) series->Reset();
}

}  // namespace telemetry
}  // namespace enld
