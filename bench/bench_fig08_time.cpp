// Reproduces Fig. 8: setup time and per-dataset process time of every
// method on the EMNIST / CIFAR100 / Tiny-ImageNet incremental streams with
// noise rates 0.1–0.4. Also prints the ENLD-vs-Topofilter process-time
// speedup the paper headlines (4.09x / 3.65x / 4.97x at full scale), and
// ENLD's hierarchical span-tree breakdown (setup/detect with per-iteration
// nesting) so the effect of ENLD_THREADS on each phase is visible directly.
//
// Pass --telemetry_out=report.json (or set ENLD_TELEMETRY=report.json) to
// dump the full machine-readable run report — span tree, metrics registry,
// per-iteration series, and detection quality — of the last ENLD run.
// Scope the sweep with ENLD_BENCH_TASKS / ENLD_BENCH_NOISES /
// ENLD_BENCH_DATASETS for quick or CI passes.

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/report.h"

namespace {

using namespace enld;

/// Indented pre-order rows of the span tree: the Fig. 8 breakdown with its
/// hierarchy (detect > iteration > finetune/voting/...) preserved.
void AddSpanRows(const telemetry::SpanSnapshot& span, int depth,
                 const std::string& dataset, const std::string& noise,
                 TablePrinter* table) {
  table->AddRow({dataset, noise,
                 std::string(2 * depth, ' ') + span.name,
                 std::to_string(span.count),
                 TablePrinter::Num(span.total_seconds, 3)});
  for (const telemetry::SpanSnapshot& child : span.children) {
    AddSpanRows(child, depth + 1, dataset, noise, table);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace enld;
  using namespace enld::bench;

  std::printf("threads: %zu (set ENLD_THREADS to change)\n\n",
              ParallelThreadCount());

  TablePrinter table({"dataset", "noise", "method", "setup_s",
                      "avg_process_s"});
  TablePrinter speedups({"dataset", "noise", "topofilter/enld_speedup"});
  TablePrinter phases({"dataset", "noise", "span", "count", "seconds"});

  telemetry::RunReport last_enld_report;
  for (PaperDataset dataset : PaperTasks()) {
    for (double noise : NoiseRates()) {
      const Workload workload = MakeWorkload(dataset, noise);
      double topofilter_time = 0.0;
      double enld_time = 0.0;
      for (auto& detector : MakeAllDetectors(dataset)) {
        const MethodRunResult run = RunDetector(detector.get(), workload);
        table.AddRow({PaperDatasetName(dataset),
                      TablePrinter::Num(noise, 1), run.method,
                      TablePrinter::Num(run.setup_seconds, 2),
                      TablePrinter::Num(run.average_process_seconds(), 3)});
        if (run.method == "topofilter") {
          topofilter_time = run.average_process_seconds();
        } else if (run.method == "enld") {
          enld_time = run.average_process_seconds();
          // The span tree replaces the old flat phase registry: every
          // top-level child of the root is one pipeline stage, with the
          // per-iteration loop nested underneath.
          for (const telemetry::SpanSnapshot& top :
               run.telemetry.spans.children) {
            AddSpanRows(top, 0, PaperDatasetName(dataset),
                        TablePrinter::Num(noise, 1), &phases);
          }
          last_enld_report = run.telemetry;
        }
      }
      if (enld_time > 0.0) {
        speedups.AddRow({PaperDatasetName(dataset),
                         TablePrinter::Num(noise, 1),
                         TablePrinter::Num(topofilter_time / enld_time, 2)});
      }
    }
  }
  table.Print("Fig. 8 — setup and process time per incremental dataset");
  speedups.Print("Fig. 8 headline — ENLD process-time speedup vs Topofilter");
  phases.Print("ENLD span tree (per workload, current threads)");

  // FeatureCache traffic across the whole sweep (the same counters land in
  // the --telemetry_out report and the serving /stats endpoint).
  auto& registry = telemetry::MetricsRegistry::Global();
  std::printf(
      "feature cache: view %llu hits / %llu misses, %llu invalidations\n",
      static_cast<unsigned long long>(
          registry.GetCounter("cache/view_hits")->Value()),
      static_cast<unsigned long long>(
          registry.GetCounter("cache/view_misses")->Value()),
      static_cast<unsigned long long>(
          registry.GetCounter("cache/invalidations")->Value()));

  const std::string out_path = telemetry::TelemetryOutPath(argc, argv);
  if (!out_path.empty()) {
    const Status written =
        telemetry::WriteRunReport(last_enld_report, out_path);
    std::printf("telemetry report (last ENLD run) -> %s: %s\n",
                out_path.c_str(), written.ToString().c_str());
    if (!written.ok()) return 1;
  }
  return 0;
}
