#ifndef ENLD_COMMON_TELEMETRY_METRICS_H_
#define ENLD_COMMON_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace enld {
namespace telemetry {

/// Process-wide metrics layer: named counters, fixed-bucket histograms
/// and append-only series, owned by a global registry.
///
/// Recording is designed to be safe and cheap from inside ParallelFor
/// bodies: counters and histogram buckets are sharded std::atomic cells
/// (no lock on the record path), so concurrent increments never contend on
/// one cache line and integer accumulation is exact — metric *values* are
/// identical at any ENLD_THREADS setting as long as the recorded work is.
/// Series are meant for sequential regions (per-iteration bookkeeping);
/// their appends take a mutex and preserve append order.
///
/// Naming conventions (see docs/OBSERVABILITY.md): "area/metric" paths,
/// e.g. "detect/votes_cast". Cost/timing metrics — excluded from the
/// cross-thread determinism contract — live under the "pool/" prefix or
/// carry a "_us" / "_seconds" suffix.

/// Number of independent atomic shards per counter. A thread is pinned to
/// one shard for its lifetime; reads sum all shards.
inline constexpr size_t kCounterShards = 16;

/// Monotonic integer counter. Add/Increment are lock-free and exact under
/// concurrency; Value() is a racy-but-complete sum (exact once all writers
/// finished).
class Counter {
 public:
  void Add(uint64_t delta);
  void Increment() { Add(1); }
  uint64_t Value() const;
  void Reset();

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  Shard shards_[kCounterShards];
};

/// Fixed-bucket histogram with <=-semantics: an observation lands in the
/// first bucket whose upper bound is >= the value, or in the implicit
/// overflow bucket. Bucket counts are Counters (exact under concurrency);
/// the running sum is a CAS-add double, exact when observations are
/// integer-valued or recorded sequentially.
///
/// Observations must be finite and >= 0 (latencies, sizes, counts). NaN
/// and negative values are dropped — they would otherwise land in an
/// arbitrary bucket — and counted under "telemetry/invalid_observations".
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double value);

  const std::vector<double>& upper_bounds() const { return upper_bounds_; }
  /// i in [0, upper_bounds().size()]; the last index is the overflow bucket.
  uint64_t BucketCount(size_t i) const { return buckets_[i].Value(); }
  uint64_t TotalCount() const { return count_.Value(); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  std::vector<double> upper_bounds_;       // Ascending.
  std::vector<Counter> buckets_;           // upper_bounds_.size() + 1.
  Counter count_;
  std::atomic<double> sum_{0.0};
};

/// Append-only sequence of doubles, e.g. one value per fine-grained
/// iteration. Appends are mutex-guarded and keep order, so series written
/// from sequential regions are deterministic.
class Series {
 public:
  void Append(double v);
  std::vector<double> Values() const;
  void Reset();

 private:
  mutable std::mutex mu_;
  std::vector<double> values_;
};

/// Value-type copy of one histogram, for reports.
struct HistogramSnapshot {
  std::vector<double> upper_bounds;
  std::vector<uint64_t> bucket_counts;  // upper_bounds.size() + 1 (overflow last).
  uint64_t count = 0;
  double sum = 0.0;
};

/// Geometric bucket ladder for latency histograms: min_bound, then
/// min_bound * factor^k while <= max_bound, with max_bound appended if the
/// ladder stops short of it. Bounds are strictly ascending; with the
/// defaults (10 us .. 128 s, factor 2) the ladder is 24 buckets wide.
std::vector<double> LogScaleBuckets(double min_bound = 1e-5,
                                    double max_bound = 128.0,
                                    double factor = 2.0);

/// Deterministic quantile estimate from bucket counts. q in [0, 1]; the
/// rank-ceil(q * count) observation's bucket is located and the value is
/// linearly interpolated inside it (bucket 0 interpolates from 0). The
/// overflow bucket reports the last finite bound — the histogram cannot
/// know how far past it the tail reached. Empty histogram -> 0.0. Depends
/// only on snapshot contents, so identical bucket counts give identical
/// quantiles on every run and thread count.
double HistogramQuantile(const HistogramSnapshot& snapshot, double q);

/// Value-type copy of the whole registry; map keys give deterministic
/// (sorted) serialization order.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, HistogramSnapshot> histograms;
  std::map<std::string, std::vector<double>> series;
};

/// Name -> metric map. Get* registers on first use and returns a stable
/// pointer (metrics are never erased); hot call sites should cache it:
///
///   static Counter* queries =
///       MetricsRegistry::Global().GetCounter("knn/queries");
///   queries->Increment();
///
/// Reset() zeroes every value but keeps registrations (and pointers) valid.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  /// `upper_bounds` is consulted only on first registration of `name`.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> upper_bounds);
  Series* GetSeries(const std::string& name);

  MetricsSnapshot Snapshot() const;
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<Series>> series_;
};

}  // namespace telemetry
}  // namespace enld

#endif  // ENLD_COMMON_TELEMETRY_METRICS_H_
