#include "common/telemetry/report.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/parallel.h"

namespace enld {
namespace telemetry {

namespace {

/// Fixed shortest-round-trip formatting so identical values serialize
/// identically across runs and platforms with IEEE doubles.
std::string JsonNumber(double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

void SpanToJson(const SpanSnapshot& span, std::ostringstream& out) {
  out << "{\"name\":" << JsonString(span.name) << ",\"count\":" << span.count
      << ",\"total_seconds\":" << JsonNumber(span.total_seconds);
  if (!span.stats.empty()) {
    out << ",\"stats\":{";
    bool first = true;
    for (const auto& [name, value] : span.stats) {
      if (!first) out << ",";
      first = false;
      out << JsonString(name) << ":" << JsonNumber(value);
    }
    out << "}";
  }
  if (!span.children.empty()) {
    out << ",\"children\":[";
    for (size_t i = 0; i < span.children.size(); ++i) {
      if (i > 0) out << ",";
      SpanToJson(span.children[i], out);
    }
    out << "]";
  }
  out << "}";
}

void SpanToCsv(const SpanSnapshot& span, const std::string& prefix,
               std::ostringstream& out) {
  const std::string path =
      prefix.empty() ? span.name : prefix + ">" + span.name;
  out << "span," << path << "," << JsonNumber(span.total_seconds) << "\n";
  out << "span_count," << path << "," << span.count << "\n";
  for (const auto& [name, value] : span.stats) {
    out << "span_stat," << path << "." << name << "," << JsonNumber(value)
        << "\n";
  }
  for (const SpanSnapshot& child : span.children) {
    SpanToCsv(child, path, out);
  }
}

Status WriteStringToFile(const std::string& content,
                         const std::string& path) {
  FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::NotFound("cannot open for writing: " + path);
  }
  const size_t written =
      std::fwrite(content.data(), 1, content.size(), file);
  std::fclose(file);
  if (written != content.size()) {
    return Status::Internal("short write: " + path);
  }
  return Status::OK();
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

RunReport CaptureRunReport() {
  RunReport report;
  report.threads = ParallelThreadCount();
  report.spans = TraceTree::Global().Snapshot();
  report.metrics = MetricsRegistry::Global().Snapshot();
  return report;
}

void ResetTelemetry() {
  TraceTree::Global().Reset();
  MetricsRegistry::Global().Reset();
}

std::string RunReportToJson(const RunReport& report) {
  std::ostringstream out;
  out << "{\"schema\":" << JsonString(report.schema)
      << ",\"method\":" << JsonString(report.method)
      << ",\"noise_rate\":" << JsonNumber(report.noise_rate)
      << ",\"threads\":" << report.threads;

  out << ",\"spans\":";
  SpanToJson(report.spans, out);

  out << ",\"metrics\":{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : report.metrics.counters) {
    if (!first) out << ",";
    first = false;
    out << JsonString(name) << ":" << value;
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : report.metrics.histograms) {
    if (!first) out << ",";
    first = false;
    out << JsonString(name) << ":{\"upper_bounds\":[";
    for (size_t i = 0; i < h.upper_bounds.size(); ++i) {
      if (i > 0) out << ",";
      out << JsonNumber(h.upper_bounds[i]);
    }
    out << "],\"bucket_counts\":[";
    for (size_t i = 0; i < h.bucket_counts.size(); ++i) {
      if (i > 0) out << ",";
      out << h.bucket_counts[i];
    }
    out << "],\"count\":" << h.count << ",\"sum\":" << JsonNumber(h.sum)
        << "}";
  }
  out << "},\"series\":{";
  first = true;
  for (const auto& [name, values] : report.metrics.series) {
    if (!first) out << ",";
    first = false;
    out << JsonString(name) << ":[";
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out << ",";
      out << JsonNumber(values[i]);
    }
    out << "]";
  }
  out << "}}";

  out << ",\"quality\":{";
  first = true;
  for (const auto& [name, value] : report.quality) {
    if (!first) out << ",";
    first = false;
    out << JsonString(name) << ":" << JsonNumber(value);
  }
  out << "}}";
  return out.str();
}

std::string RunReportToCsv(const RunReport& report) {
  std::ostringstream out;
  out << "kind,name,value\n";
  out << "meta,schema," << report.schema << "\n";
  out << "meta,method," << report.method << "\n";
  out << "meta,noise_rate," << JsonNumber(report.noise_rate) << "\n";
  out << "meta,threads," << report.threads << "\n";
  SpanToCsv(report.spans, "", out);
  for (const auto& [name, value] : report.metrics.counters) {
    out << "counter," << name << "," << value << "\n";
  }
  for (const auto& [name, h] : report.metrics.histograms) {
    for (size_t i = 0; i < h.bucket_counts.size(); ++i) {
      out << "histogram," << name << "[le="
          << (i < h.upper_bounds.size() ? JsonNumber(h.upper_bounds[i])
                                        : std::string("inf"))
          << "]," << h.bucket_counts[i] << "\n";
    }
    out << "histogram," << name << "[count]," << h.count << "\n";
    out << "histogram," << name << "[sum]," << JsonNumber(h.sum) << "\n";
  }
  for (const auto& [name, values] : report.metrics.series) {
    for (size_t i = 0; i < values.size(); ++i) {
      out << "series," << name << "[" << i << "]," << JsonNumber(values[i])
          << "\n";
    }
  }
  for (const auto& [name, value] : report.quality) {
    out << "quality," << name << "," << JsonNumber(value) << "\n";
  }
  return out.str();
}

Status WriteRunReport(const RunReport& report, const std::string& path) {
  const std::string content =
      EndsWith(path, ".csv") ? RunReportToCsv(report)
                             : RunReportToJson(report);
  return WriteStringToFile(content, path);
}

std::string TelemetryOutPath(int argc, char** argv) {
  const char* prefix = "--telemetry_out=";
  const size_t prefix_len = std::strlen(prefix);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix, prefix_len) == 0) {
      return std::string(argv[i] + prefix_len);
    }
  }
  const char* env = std::getenv("ENLD_TELEMETRY");
  return env != nullptr ? std::string(env) : std::string();
}

bool IsCostMetric(const std::string& name) {
  if (name.rfind("pool/", 0) == 0) return true;
  return EndsWith(name, "_us") || EndsWith(name, "_seconds");
}

MetricsSnapshot DeterministicView(const MetricsSnapshot& snapshot) {
  MetricsSnapshot out;
  for (const auto& [name, value] : snapshot.counters) {
    if (!IsCostMetric(name)) out.counters[name] = value;
  }
  for (const auto& [name, value] : snapshot.histograms) {
    if (!IsCostMetric(name)) out.histograms[name] = value;
  }
  for (const auto& [name, value] : snapshot.series) {
    if (!IsCostMetric(name)) out.series[name] = value;
  }
  return out;
}

}  // namespace telemetry
}  // namespace enld
