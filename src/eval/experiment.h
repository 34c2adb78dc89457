#ifndef ENLD_EVAL_EXPERIMENT_H_
#define ENLD_EVAL_EXPERIMENT_H_

#include <string>
#include <vector>

#include "common/telemetry/report.h"
#include "data/workload.h"
#include "enld/detector.h"
#include "eval/metrics.h"

namespace enld {

/// Everything measured while running one detector over one workload's
/// incremental stream: the paper's per-dataset metrics plus the
/// setup-time / process-time split of Fig. 8.
struct MethodRunResult {
  /// Canonical lowercase detector key (detector->name()); the value used
  /// in bench report columns and the telemetry method label.
  std::string method;
  /// Human-readable detector name (the detector table's display name;
  /// `method` for a detector outside it), for figure-style headers.
  std::string method_display;
  double noise_rate = 0.0;
  double setup_seconds = 0.0;
  std::vector<double> process_seconds;     // Per incremental dataset.
  std::vector<DetectionMetrics> per_dataset;
  std::vector<DetectionResult> raw_results;  // Parallel to per_dataset.
  /// Full telemetry capture of this run: hierarchical span tree, metrics
  /// registry, and quality section (detection P/R/F1 and the timing
  /// headline), serializable via telemetry::WriteRunReport.
  telemetry::RunReport telemetry;

  /// Macro average over incremental datasets.
  DetectionMetrics average() const { return AverageMetrics(per_dataset); }
  /// Mean per-dataset process time in seconds.
  double average_process_seconds() const;
};

/// Runs `detector` through Setup(inventory) and Detect() over every
/// incremental dataset of the workload, timing both phases, scoring
/// detections against ground truth and keeping each DetectionResult.
MethodRunResult RunDetector(NoisyLabelDetector* detector,
                            const Workload& workload);

}  // namespace enld

#endif  // ENLD_EVAL_EXPERIMENT_H_
