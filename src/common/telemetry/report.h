#ifndef ENLD_COMMON_TELEMETRY_REPORT_H_
#define ENLD_COMMON_TELEMETRY_REPORT_H_

#include <map>
#include <string>

#include "common/status.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/trace.h"

namespace enld {
namespace telemetry {

/// Machine-readable capture of one run: the aggregated span tree, the full
/// metrics registry and a flat quality section (detection F1 etc., attached
/// by eval/). Serialized deterministically — map keys are sorted, span
/// children keep first-entry order, doubles use a fixed format — so two
/// runs with identical seeds diff cleanly (timings aside).
struct RunReport {
  std::string schema = "enld-telemetry-v1";
  std::string method;       // Detector name, when produced by RunDetector.
  double noise_rate = 0.0;
  size_t threads = 1;       // ParallelThreadCount() at capture time.
  SpanSnapshot spans;       // Root node "run".
  MetricsSnapshot metrics;
  std::map<std::string, double> quality;
};

/// Snapshots the global trace tree and metrics registry. Caller fills the
/// method / noise_rate / threads / quality fields.
RunReport CaptureRunReport();

/// Resets the global trace tree and metrics registry (start of a run).
void ResetTelemetry();

std::string RunReportToJson(const RunReport& report);

/// Flat `kind,name,value` rows: spans (path joined with '>'), counters,
/// histogram buckets and series points.
std::string RunReportToCsv(const RunReport& report);

/// Writes CSV when `path` ends in ".csv", JSON otherwise.
Status WriteRunReport(const RunReport& report, const std::string& path);

/// Resolves where to write a run report: the `--telemetry_out=PATH` flag
/// if present in argv, else the ENLD_TELEMETRY environment variable, else
/// "" (don't write).
std::string TelemetryOutPath(int argc, char** argv);

/// True for cost/timing metrics that are exempt from the cross-thread
/// determinism contract: names under "pool/" or ending in "_us" /
/// "_seconds". Everything else must be bit-identical at any ENLD_THREADS.
bool IsCostMetric(const std::string& name);

/// Copy of `snapshot` with cost metrics removed — the part that must be
/// identical across thread counts. Used by tests and the CI validator.
MetricsSnapshot DeterministicView(const MetricsSnapshot& snapshot);

}  // namespace telemetry
}  // namespace enld

#endif  // ENLD_COMMON_TELEMETRY_REPORT_H_
