#ifndef ENLD_EVAL_REPORTING_H_
#define ENLD_EVAL_REPORTING_H_

#include <string>

#include "common/telemetry/report.h"

namespace enld {

/// Three-line human summary of a telemetry report: registry size and span
/// depth, the wall-clock split across top-level spans, and the detector's
/// clean-set trajectory with work counters. Used by examples so the
/// instrumentation is visible without opening the JSON.
std::string TelemetrySummary(const telemetry::RunReport& report);

}  // namespace enld

#endif  // ENLD_EVAL_REPORTING_H_
