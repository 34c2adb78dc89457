// Detector head-to-head matrix: every registered detector x paper dataset
// x noise rate, one row per cell with detection quality (precision /
// recall / F1) and the setup / process wall-clock split, plus the
// per-phase span breakdown from the telemetry span tree. The JSON report
// ("enld-detector-matrix-v1") is deterministic apart from timings and is
// validated by tools/check_report.py matrix (the drill.detectors ctest).
//
// Scope the sweep with ENLD_BENCH_TASKS / ENLD_BENCH_NOISES /
// ENLD_BENCH_DATASETS (bench_util.h) and --detectors=key1,key2 (default:
// every registered detector). --matrix_out=PATH (or ENLD_MATRIX_OUT)
// chooses the JSON destination; default detector_matrix.json.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/table.h"

namespace {

using namespace enld;
using namespace enld::bench;

/// One (detector, dataset, noise) cell of the matrix.
struct MatrixCell {
  std::string detector;
  std::string display_name;
  std::string dataset;
  double noise = 0.0;
  size_t datasets_processed = 0;
  DetectionMetrics quality;
  double setup_seconds = 0.0;
  double avg_process_seconds = 0.0;
  /// Flat span rows (path joined with '>', root "run" excluded).
  std::vector<std::pair<std::string, std::pair<uint64_t, double>>> spans;
};

void FlattenSpans(const telemetry::SpanSnapshot& span,
                  const std::string& prefix, MatrixCell* cell) {
  const std::string path =
      prefix.empty() ? span.name : prefix + ">" + span.name;
  cell->spans.push_back({path, {span.count, span.total_seconds}});
  for (const telemetry::SpanSnapshot& child : span.children) {
    FlattenSpans(child, path, cell);
  }
}

std::string JsonNumber(double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

std::string MatrixToJson(const std::vector<std::string>& detectors,
                         const std::vector<std::string>& datasets,
                         const std::vector<double>& noises,
                         const std::vector<MatrixCell>& cells) {
  std::ostringstream out;
  out << "{\"schema\":\"enld-detector-matrix-v1\"";
  out << ",\"threads\":" << ParallelThreadCount();
  out << ",\"detectors\":[";
  for (size_t i = 0; i < detectors.size(); ++i) {
    if (i > 0) out << ",";
    out << JsonString(detectors[i]);
  }
  out << "],\"datasets\":[";
  for (size_t i = 0; i < datasets.size(); ++i) {
    if (i > 0) out << ",";
    out << JsonString(datasets[i]);
  }
  out << "],\"noises\":[";
  for (size_t i = 0; i < noises.size(); ++i) {
    if (i > 0) out << ",";
    out << JsonNumber(noises[i]);
  }
  out << "],\"cells\":[";
  for (size_t i = 0; i < cells.size(); ++i) {
    const MatrixCell& cell = cells[i];
    if (i > 0) out << ",";
    out << "{\"detector\":" << JsonString(cell.detector)
        << ",\"display_name\":" << JsonString(cell.display_name)
        << ",\"dataset\":" << JsonString(cell.dataset)
        << ",\"noise\":" << JsonNumber(cell.noise)
        << ",\"datasets_processed\":" << cell.datasets_processed
        << ",\"precision\":" << JsonNumber(cell.quality.precision)
        << ",\"recall\":" << JsonNumber(cell.quality.recall)
        << ",\"f1\":" << JsonNumber(cell.quality.f1)
        << ",\"setup_seconds\":" << JsonNumber(cell.setup_seconds)
        << ",\"avg_process_seconds\":"
        << JsonNumber(cell.avg_process_seconds) << ",\"spans\":[";
    for (size_t s = 0; s < cell.spans.size(); ++s) {
      if (s > 0) out << ",";
      out << "{\"path\":" << JsonString(cell.spans[s].first)
          << ",\"count\":" << cell.spans[s].second.first
          << ",\"seconds\":" << JsonNumber(cell.spans[s].second.second)
          << "}";
    }
    out << "]}";
  }
  out << "]}\n";
  return out.str();
}

/// --detectors=a,b,c (default: every registered key, sorted).
std::vector<std::string> SelectedDetectors(int argc, char** argv) {
  std::string spec;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--detectors=", 12) == 0) spec = argv[i] + 12;
  }
  std::vector<std::string> keys;
  if (spec.empty()) {
    for (const detect::DetectorInfo& info : detect::ListDetectors()) {
      keys.push_back(info.key);
    }
    return keys;
  }
  size_t start = 0;
  while (start <= spec.size()) {
    const size_t comma = spec.find(',', start);
    const std::string key =
        spec.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (!key.empty()) {
      if (detect::FindDetector(key) == nullptr) {
        std::fprintf(stderr, "unknown detector '%s'; --list via enld_cli "
                             "detect --list_detectors\n",
                     key.c_str());
        std::exit(2);
      }
      keys.push_back(key);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return keys;
}

std::string MatrixOutPath(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--matrix_out=", 13) == 0) return argv[i] + 13;
  }
  const char* env = std::getenv("ENLD_MATRIX_OUT");
  if (env != nullptr && *env != '\0') return env;
  return "detector_matrix.json";
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("threads: %zu (set ENLD_THREADS to change)\n\n",
              ParallelThreadCount());

  const std::vector<std::string> detector_keys =
      SelectedDetectors(argc, argv);
  TablePrinter quality({"dataset", "noise", "detector", "precision",
                       "recall", "f1"});
  TablePrinter timing({"dataset", "noise", "detector", "setup_s",
                      "avg_process_s"});

  std::vector<MatrixCell> cells;
  std::vector<std::string> dataset_names;
  for (PaperDataset dataset : PaperTasks()) {
    dataset_names.push_back(PaperDatasetName(dataset));
    for (double noise : NoiseRates()) {
      const Workload workload = MakeWorkload(dataset, noise);
      for (const std::string& key : detector_keys) {
        auto detector =
            MakePaperDetector(key, PaperDetectorContext(dataset));
        const MethodRunResult run = RunDetector(detector.get(), workload);

        MatrixCell cell;
        cell.detector = run.method;
        cell.display_name = run.method_display;
        cell.dataset = PaperDatasetName(dataset);
        cell.noise = noise;
        cell.datasets_processed = workload.incremental.size();
        cell.quality = run.average();
        cell.setup_seconds = run.setup_seconds;
        cell.avg_process_seconds = run.average_process_seconds();
        for (const telemetry::SpanSnapshot& top :
             run.telemetry.spans.children) {
          FlattenSpans(top, "", &cell);
        }
        cells.push_back(cell);

        quality.AddRow({cell.dataset, TablePrinter::Num(noise, 1),
                        cell.detector, TablePrinter::Num(cell.quality.precision),
                        TablePrinter::Num(cell.quality.recall),
                        TablePrinter::Num(cell.quality.f1)});
        timing.AddRow({cell.dataset, TablePrinter::Num(noise, 1),
                       cell.detector,
                       TablePrinter::Num(cell.setup_seconds, 2),
                       TablePrinter::Num(cell.avg_process_seconds, 3)});
      }
    }
  }

  quality.Print("Detector matrix — detection quality");
  timing.Print("Detector matrix — setup / process time");

  const std::string out_path = MatrixOutPath(argc, argv);
  const std::string json =
      MatrixToJson(detector_keys, dataset_names, NoiseRates(), cells);
  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  out << json;
  out.flush();
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("matrix report (%zu cells) -> %s\n", cells.size(),
              out_path.c_str());
  return 0;
}
