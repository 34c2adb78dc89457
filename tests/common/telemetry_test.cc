#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/report.h"
#include "common/telemetry/trace.h"

namespace enld {
namespace telemetry {
namespace {

/// Every test starts and ends with clean global telemetry state so tests
/// are order-independent.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetTelemetry(); }
  void TearDown() override {
    ResetTelemetry();
    SetParallelThreads(0);
  }
};

// ---------------------------------------------------------------------------
// Metrics registry.

TEST_F(TelemetryTest, CounterAddAndReset) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Add(5);
  counter.Increment();
  EXPECT_EQ(counter.Value(), 6u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST_F(TelemetryTest, RegistryReturnsStablePointers) {
  auto& registry = MetricsRegistry::Global();
  Counter* a = registry.GetCounter("test/stable");
  Counter* b = registry.GetCounter("test/stable");
  EXPECT_EQ(a, b);
  a->Add(3);
  // Reset zeroes values but keeps the registration and the pointer valid.
  registry.Reset();
  EXPECT_EQ(registry.GetCounter("test/stable"), a);
  EXPECT_EQ(a->Value(), 0u);
}

TEST_F(TelemetryTest, HistogramBucketSemantics) {
  auto& registry = MetricsRegistry::Global();
  Histogram* hist =
      registry.GetHistogram("test/hist", {1.0, 2.0, 3.0});
  hist->Observe(0.5);   // First bucket (<= 1.0).
  hist->Observe(1.0);   // Boundary lands in its own bucket (le-semantics).
  hist->Observe(2.5);   // Third bucket (<= 3.0).
  hist->Observe(99.0);  // Overflow bucket.
  EXPECT_EQ(hist->BucketCount(0), 2u);
  EXPECT_EQ(hist->BucketCount(1), 0u);
  EXPECT_EQ(hist->BucketCount(2), 1u);
  EXPECT_EQ(hist->BucketCount(3), 1u);
  EXPECT_EQ(hist->TotalCount(), 4u);
  EXPECT_DOUBLE_EQ(hist->Sum(), 0.5 + 1.0 + 2.5 + 99.0);
}

TEST_F(TelemetryTest, HistogramDropsInvalidObservations) {
  auto& registry = MetricsRegistry::Global();
  Histogram* hist = registry.GetHistogram("test/invalid", {1.0});
  Counter* invalid = registry.GetCounter("telemetry/invalid_observations");
  const uint64_t before = invalid->Value();
  hist->Observe(std::nan(""));
  hist->Observe(-0.25);
  hist->Observe(0.5);  // valid, lands in the first bucket
  EXPECT_EQ(hist->TotalCount(), 1u);
  EXPECT_DOUBLE_EQ(hist->Sum(), 0.5);
  EXPECT_EQ(invalid->Value(), before + 2);
}

TEST_F(TelemetryTest, LogScaleBucketsAreAscendingAndCapped) {
  const std::vector<double> bounds = LogScaleBuckets();
  ASSERT_GE(bounds.size(), 2u);
  EXPECT_DOUBLE_EQ(bounds.front(), 1e-5);
  EXPECT_DOUBLE_EQ(bounds.back(), 128.0);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]) << "at index " << i;
  }
  // A ladder whose geometric progression stops short of max_bound gets
  // max_bound appended as the final edge.
  const std::vector<double> custom = LogScaleBuckets(1.0, 10.0, 3.0);
  EXPECT_EQ(custom, (std::vector<double>{1.0, 3.0, 9.0, 10.0}));
}

TEST_F(TelemetryTest, HistogramQuantileOfEmptyHistogramIsZero) {
  HistogramSnapshot empty;
  empty.upper_bounds = {1.0, 2.0};
  empty.bucket_counts = {0, 0, 0};
  EXPECT_DOUBLE_EQ(HistogramQuantile(empty, 0.5), 0.0);
}

TEST_F(TelemetryTest, HistogramQuantileInterpolatesWithinBuckets) {
  HistogramSnapshot snap;
  snap.upper_bounds = {1.0, 2.0, 4.0};
  snap.bucket_counts = {2, 1, 1, 0};
  snap.count = 4;
  // rank 1 of 2 in the first bucket: halfway between 0 and its edge.
  EXPECT_DOUBLE_EQ(HistogramQuantile(snap, 0.25), 0.5);
  // rank 2 exhausts the first bucket: exactly the bucket boundary.
  EXPECT_DOUBLE_EQ(HistogramQuantile(snap, 0.5), 1.0);
  // The maximum lands at the last finite edge.
  EXPECT_DOUBLE_EQ(HistogramQuantile(snap, 1.0), 4.0);
  // Quantiles are clamped into [0, 1].
  EXPECT_DOUBLE_EQ(HistogramQuantile(snap, -3.0),
                   HistogramQuantile(snap, 0.0));
  EXPECT_DOUBLE_EQ(HistogramQuantile(snap, 7.0),
                   HistogramQuantile(snap, 1.0));
}

TEST_F(TelemetryTest, HistogramQuantileOverflowBucketStaysBounded) {
  HistogramSnapshot snap;
  snap.upper_bounds = {1.0, 2.0, 4.0};
  snap.bucket_counts = {0, 0, 0, 5};
  snap.count = 5;
  // Every observation overflowed: no upper edge to interpolate toward, so
  // the readout pins to the last finite bound instead of inventing one.
  EXPECT_DOUBLE_EQ(HistogramQuantile(snap, 0.5), 4.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(snap, 0.99), 4.0);
}

// Quantiles must read deterministically off the merged snapshot even when
// the observations landed on different counter shards.
TEST_F(TelemetryTest, HistogramQuantileMergesAcrossShards) {
  SetParallelThreads(8);
  auto& registry = MetricsRegistry::Global();
  Histogram* hist = registry.GetHistogram("test/quantile", {1.0, 2.0, 3.0});
  constexpr size_t kItems = 4000;
  ParallelFor(0, kItems, 16, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      hist->Observe(0.5 + static_cast<double>(i % 4));  // 0.5, 1.5, 2.5, 3.5
    }
  });
  const HistogramSnapshot snap =
      registry.Snapshot().histograms.at("test/quantile");
  ASSERT_EQ(snap.count, kItems);
  const double p50 = HistogramQuantile(snap, 0.5);
  const double p90 = HistogramQuantile(snap, 0.9);
  const double p99 = HistogramQuantile(snap, 0.99);
  EXPECT_DOUBLE_EQ(p50, 2.0);  // rank 2000 exhausts the (1, 2] bucket
  EXPECT_DOUBLE_EQ(p99, 3.0);  // overflow bucket pins to the last edge
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
}

TEST_F(TelemetryTest, SeriesPreservesAppendOrder) {
  Series* series = MetricsRegistry::Global().GetSeries("test/series");
  series->Append(3.0);
  series->Append(1.0);
  series->Append(2.0);
  EXPECT_EQ(series->Values(), (std::vector<double>{3.0, 1.0, 2.0}));
}

TEST_F(TelemetryTest, SnapshotCoversAllMetricKinds) {
  auto& registry = MetricsRegistry::Global();
  registry.GetCounter("test/c")->Add(7);
  registry.GetGauge("test/g")->Set(2.5);
  registry.GetHistogram("test/h", {10.0})->Observe(4.0);
  registry.GetSeries("test/s")->Append(1.0);
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("test/c"), 7u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("test/g"), 2.5);
  EXPECT_EQ(snap.histograms.at("test/h").count, 1u);
  EXPECT_EQ(snap.series.at("test/s").size(), 1u);
}

// Hammer one counter from every worker of a real ParallelFor: the sharded
// atomics must lose no increments regardless of interleaving.
TEST_F(TelemetryTest, CounterIsExactUnderParallelFor) {
  SetParallelThreads(8);
  Counter* counter = MetricsRegistry::Global().GetCounter("test/parallel");
  Histogram* hist =
      MetricsRegistry::Global().GetHistogram("test/parallel_hist", {0.5});
  constexpr size_t kItems = 100000;
  ParallelFor(0, kItems, 64, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      counter->Increment();
      hist->Observe(i % 2 == 0 ? 0.0 : 1.0);
    }
  });
  EXPECT_EQ(counter->Value(), kItems);
  EXPECT_EQ(hist->TotalCount(), kItems);
  EXPECT_EQ(hist->BucketCount(0), kItems / 2);
  EXPECT_EQ(hist->BucketCount(1), kItems / 2);
}

// ---------------------------------------------------------------------------
// Trace spans.

TEST_F(TelemetryTest, SpansNestAndMergeByName) {
  for (int i = 0; i < 3; ++i) {
    ENLD_TRACE_SPAN("outer");
    {
      ENLD_TRACE_SPAN("inner");
    }
    {
      ENLD_TRACE_SPAN("inner");
    }
  }
  const SpanSnapshot root = TraceTree::Global().Snapshot();
  EXPECT_EQ(root.name, "run");
  ASSERT_EQ(root.children.size(), 1u);
  const SpanSnapshot& outer = root.children[0];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.count, 3u);
  // Both "inner" entries per outer iteration merged into one child node.
  ASSERT_EQ(outer.children.size(), 1u);
  EXPECT_EQ(outer.children[0].name, "inner");
  EXPECT_EQ(outer.children[0].count, 6u);
  EXPECT_GE(outer.total_seconds, outer.children[0].total_seconds);
  EXPECT_EQ(root.Depth(), 2u);
  EXPECT_NE(root.Child("outer"), nullptr);
  EXPECT_EQ(root.Child("missing"), nullptr);
}

TEST_F(TelemetryTest, SpanStatsAccumulate) {
  {
    ScopedSpan span("stats");
    span.AddStat("items", 4.0);
    span.AddStat("items", 2.0);
    CurrentSpanStat("ambient", 1.0);
  }
  // No active span: the stat is dropped, not attached anywhere.
  CurrentSpanStat("ambient", 100.0);
  const SpanSnapshot root = TraceTree::Global().Snapshot();
  const SpanSnapshot* span = root.Child("stats");
  ASSERT_NE(span, nullptr);
  EXPECT_DOUBLE_EQ(span->stats.at("items"), 6.0);
  EXPECT_DOUBLE_EQ(span->stats.at("ambient"), 1.0);
}

TEST_F(TelemetryTest, SpanOnThreadWithoutParentAttachesToRoot) {
  {
    ENLD_TRACE_SPAN("parent");
    std::thread other([] {
      ENLD_TRACE_SPAN("orphan");
    });
    other.join();
  }
  const SpanSnapshot root = TraceTree::Global().Snapshot();
  // "orphan" ran on a thread with no active span: root-level, not nested.
  EXPECT_NE(root.Child("orphan"), nullptr);
  ASSERT_NE(root.Child("parent"), nullptr);
  EXPECT_EQ(root.Child("parent")->Child("orphan"), nullptr);
}

// ---------------------------------------------------------------------------
// Run reports.

TEST_F(TelemetryTest, JsonReportContainsAllSections) {
  {
    ENLD_TRACE_SPAN("phase");
    ENLD_TRACE_SPAN("phase/sub");
  }
  auto& registry = MetricsRegistry::Global();
  registry.GetCounter("area/count")->Add(42);
  registry.GetGauge("area/gauge")->Set(1.5);
  registry.GetHistogram("area/hist", {1.0, 2.0})->Observe(1.5);
  registry.GetSeries("area/series")->Append(7.0);

  RunReport report = CaptureRunReport();
  report.method = "TestMethod";
  report.noise_rate = 0.2;
  report.quality["f1_avg"] = 0.93;

  const std::string json = RunReportToJson(report);
  EXPECT_NE(json.find("\"schema\":\"enld-telemetry-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"method\":\"TestMethod\""), std::string::npos);
  EXPECT_NE(json.find("\"phase/sub\""), std::string::npos);
  EXPECT_NE(json.find("\"area/count\":42"), std::string::npos);
  EXPECT_NE(json.find("\"area/gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"area/hist\""), std::string::npos);
  EXPECT_NE(json.find("\"area/series\""), std::string::npos);
  EXPECT_NE(json.find("\"f1_avg\""), std::string::npos);
}

TEST_F(TelemetryTest, JsonSerializationIsDeterministic) {
  auto build = [] {
    ResetTelemetry();
    {
      ENLD_TRACE_SPAN("alpha");
      ENLD_TRACE_SPAN("beta");
    }
    auto& registry = MetricsRegistry::Global();
    registry.GetCounter("z/last")->Add(1);
    registry.GetCounter("a/first")->Add(2);
    RunReport report = CaptureRunReport();
    report.method = "Det";
    // Zero out wall-clock so the two captures compare equal.
    std::function<void(SpanSnapshot&)> strip = [&](SpanSnapshot& span) {
      span.total_seconds = 0.0;
      for (SpanSnapshot& child : span.children) strip(child);
    };
    strip(report.spans);
    return RunReportToJson(report);
  };
  EXPECT_EQ(build(), build());
}

TEST_F(TelemetryTest, CsvReportSelectedByExtension) {
  MetricsRegistry::Global().GetCounter("area/count")->Add(3);
  {
    ENLD_TRACE_SPAN("phase");
  }
  const RunReport report = CaptureRunReport();
  const std::string csv = RunReportToCsv(report);
  EXPECT_NE(csv.find("counter,area/count,3"), std::string::npos);
  EXPECT_NE(csv.find("phase"), std::string::npos);

  const std::string json_path = ::testing::TempDir() + "/telemetry.json";
  const std::string csv_path = ::testing::TempDir() + "/telemetry.csv";
  ASSERT_TRUE(WriteRunReport(report, json_path).ok());
  ASSERT_TRUE(WriteRunReport(report, csv_path).ok());
}

TEST_F(TelemetryTest, TelemetryOutPathResolvesFlagThenEnv) {
  const char* argv_with_flag[] = {"prog", "--telemetry_out=/tmp/x.json"};
  EXPECT_EQ(TelemetryOutPath(2, const_cast<char**>(argv_with_flag)),
            "/tmp/x.json");
  const char* argv_plain[] = {"prog"};
  unsetenv("ENLD_TELEMETRY");
  EXPECT_EQ(TelemetryOutPath(1, const_cast<char**>(argv_plain)), "");
  setenv("ENLD_TELEMETRY", "/tmp/env.json", 1);
  EXPECT_EQ(TelemetryOutPath(1, const_cast<char**>(argv_plain)),
            "/tmp/env.json");
  // The explicit flag wins over the environment.
  EXPECT_EQ(TelemetryOutPath(2, const_cast<char**>(argv_with_flag)),
            "/tmp/x.json");
  unsetenv("ENLD_TELEMETRY");
}

// ---------------------------------------------------------------------------
// Determinism across thread counts.

TEST_F(TelemetryTest, CostMetricClassification) {
  EXPECT_TRUE(IsCostMetric("pool/tasks"));
  EXPECT_TRUE(IsCostMetric("pool/queue_wait_us"));
  EXPECT_TRUE(IsCostMetric("train/batch_assembly_us"));
  EXPECT_TRUE(IsCostMetric("quality/setup_seconds"));
  EXPECT_FALSE(IsCostMetric("detect/votes_cast"));
  EXPECT_FALSE(IsCostMetric("knn/queries"));
}

TEST_F(TelemetryTest, DeterministicViewStripsCostMetrics) {
  auto& registry = MetricsRegistry::Global();
  registry.GetCounter("pool/tasks")->Add(10);
  registry.GetCounter("detect/votes_cast")->Add(20);
  registry.GetCounter("train/batch_assembly_us")->Add(30);
  const MetricsSnapshot view = DeterministicView(registry.Snapshot());
  EXPECT_EQ(view.counters.count("pool/tasks"), 0u);
  EXPECT_EQ(view.counters.count("train/batch_assembly_us"), 0u);
  EXPECT_EQ(view.counters.at("detect/votes_cast"), 20u);
}

// The acceptance criterion in miniature: running the same instrumented
// workload at 1 thread and at 8 threads must produce identical
// deterministic-view metric values (cost metrics excepted).
TEST_F(TelemetryTest, MetricValuesIdenticalAcrossThreadCounts) {
  auto run_workload = [](size_t threads) {
    SetParallelThreads(threads);
    ResetTelemetry();
    auto& registry = MetricsRegistry::Global();
    Counter* processed = registry.GetCounter("test/processed");
    Histogram* hist = registry.GetHistogram("test/values", {10.0, 100.0});
    ParallelFor(0, 5000, 32, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        processed->Increment();
        hist->Observe(static_cast<double>(i % 150));
      }
    });
    // Sequential-region series, as the detector records per iteration.
    Series* series = registry.GetSeries("test/series");
    for (int i = 0; i < 4; ++i) series->Append(i * 1.5);
    return DeterministicView(registry.Snapshot());
  };

  const MetricsSnapshot sequential = run_workload(1);
  const MetricsSnapshot parallel = run_workload(8);
  EXPECT_EQ(sequential.counters, parallel.counters);
  EXPECT_EQ(sequential.series, parallel.series);
  ASSERT_EQ(sequential.histograms.size(), parallel.histograms.size());
  for (const auto& [name, hist] : sequential.histograms) {
    const HistogramSnapshot& other = parallel.histograms.at(name);
    EXPECT_EQ(hist.bucket_counts, other.bucket_counts) << name;
    EXPECT_EQ(hist.count, other.count) << name;
    EXPECT_DOUBLE_EQ(hist.sum, other.sum) << name;
  }
  // The built-in loop counters recorded by ParallelFor itself are part of
  // the deterministic contract too: chunking is thread-count independent.
  EXPECT_EQ(sequential.counters.at("parallel/loops"),
            parallel.counters.at("parallel/loops"));
  EXPECT_EQ(sequential.counters.at("parallel/chunks"),
            parallel.counters.at("parallel/chunks"));
}

}  // namespace
}  // namespace telemetry
}  // namespace enld
