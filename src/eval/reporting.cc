#include "eval/reporting.h"

#include <cstdio>
#include <sstream>

namespace enld {

std::string TelemetrySummary(const telemetry::RunReport& report) {
  std::ostringstream out;
  char buffer[256];

  std::snprintf(buffer, sizeof(buffer),
                "telemetry: %zu counters, %zu histograms, %zu series; span "
                "tree depth %zu (dump with --telemetry_out=PATH or "
                "ENLD_TELEMETRY=PATH)\n",
                report.metrics.counters.size(),
                report.metrics.histograms.size(),
                report.metrics.series.size(), report.spans.Depth());
  out << buffer;

  out << "time split:";
  bool first = true;
  for (const telemetry::SpanSnapshot& top : report.spans.children) {
    std::snprintf(buffer, sizeof(buffer), "%s %s %.2fs",
                  first ? "" : " |", top.name.c_str(), top.total_seconds);
    out << buffer;
    first = false;
    // One level of detail under the heaviest phases.
    for (const telemetry::SpanSnapshot& child : top.children) {
      std::snprintf(buffer, sizeof(buffer), " (%s %.2fs)",
                    child.name.c_str(), child.total_seconds);
      out << buffer;
    }
  }
  out << "\n";

  const auto clean = report.metrics.series.find("detect/clean_size");
  out << "detect:";
  if (clean != report.metrics.series.end() && !clean->second.empty()) {
    std::snprintf(buffer, sizeof(buffer),
                  " clean-set %.0f -> %.0f over %zu iteration points;",
                  clean->second.front(), clean->second.back(),
                  clean->second.size());
    out << buffer;
  }
  const auto queries = report.metrics.counters.find("knn/queries");
  const auto steps = report.metrics.counters.find("train/steps");
  std::snprintf(
      buffer, sizeof(buffer), " %llu knn queries, %llu train steps\n",
      static_cast<unsigned long long>(
          queries != report.metrics.counters.end() ? queries->second : 0),
      static_cast<unsigned long long>(
          steps != report.metrics.counters.end() ? steps->second : 0));
  out << buffer;
  return out.str();
}

}  // namespace enld
