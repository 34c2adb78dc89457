// Runs every detection method on the same incremental stream and prints a
// comparison table — a miniature of the paper's Fig. 5 (quality) and
// Fig. 8 (setup/process time).
//
//   ./build/examples/method_comparison [noise_rate]

#include <cstdio>

#include "common/check.h"
#include "common/table.h"
#include "data/workload.h"
#include "detect/registry.h"
#include "eval/experiment.h"
#include "eval/paper_setup.h"
#include "flags.h"

int main(int argc, char** argv) {
  using namespace enld;
  const double noise_rate = flags::LeadingRate(argc, argv, "noise_rate", 0.2);

  WorkloadConfig workload_config = Cifar100WorkloadConfig(noise_rate);
  workload_config.stream.num_datasets = 8;
  const Workload workload = BuildWorkload(workload_config);
  std::printf(
      "inventory %zu samples / %d classes, %zu incremental datasets, "
      "noise %.1f\n",
      workload.inventory.size(), workload.inventory.num_classes,
      workload.incremental.size(), noise_rate);

  TablePrinter table({"method", "precision", "recall", "f1", "setup_s",
                      "avg_process_s"});
  for (const char* key : {"default", "cl1", "cl2", "topofilter", "enld"}) {
    auto detector = detect::CreateDetector(
        key, {}, PaperDetectorContext(PaperDataset::kCifar100));
    ENLD_CHECK(detector.ok());
    const MethodRunResult run = RunDetector(detector->get(), workload);
    const DetectionMetrics avg = run.average();
    table.AddRow({run.method, TablePrinter::Num(avg.precision),
                  TablePrinter::Num(avg.recall), TablePrinter::Num(avg.f1),
                  TablePrinter::Num(run.setup_seconds, 2),
                  TablePrinter::Num(run.average_process_seconds(), 3)});
  }
  table.Print("method comparison");
  return 0;
}
