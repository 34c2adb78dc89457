// Reproduces Fig. 6: ENLD vs Topofilter with the DenseNet-121-sim and
// ResNet-164-sim backbones on CIFAR100-sim, plus the per-backbone
// process-time speedups the paper reports (2.46x / 2.64x at full scale).

#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace enld;
  using namespace enld::bench;

  TablePrinter table({"backbone", "noise", "method", "precision", "recall",
                      "f1", "avg_process_s"});
  TablePrinter speedups({"backbone", "avg_speedup"});

  for (Backbone backbone :
       {Backbone::kDenseNet121Sim, Backbone::kResNet164Sim}) {
    double topofilter_time = 0.0;
    double enld_time = 0.0;
    for (double noise : NoiseRates()) {
      const Workload workload = MakeWorkload(PaperDataset::kCifar100, noise);

      detect::DetectorContext context =
          PaperDetectorContext(PaperDataset::kCifar100);
      context.topofilter.backbone = backbone;
      auto topofilter = detect::CreateDetector("topofilter", {}, context);
      ENLD_CHECK(topofilter.ok());
      const MethodRunResult topo_run =
          RunDetector(topofilter->get(), workload);
      topofilter_time += topo_run.average_process_seconds();

      EnldConfig enld_config = PaperEnldConfig(PaperDataset::kCifar100);
      enld_config.general.backbone = backbone;
      EnldFramework enld(enld_config);
      const MethodRunResult enld_run = RunDetector(&enld, workload);
      enld_time += enld_run.average_process_seconds();

      for (const MethodRunResult* run : {&topo_run, &enld_run}) {
        const DetectionMetrics avg = run->average();
        table.AddRow({BackboneName(backbone), TablePrinter::Num(noise, 1),
                      run->method, TablePrinter::Num(avg.precision),
                      TablePrinter::Num(avg.recall),
                      TablePrinter::Num(avg.f1),
                      TablePrinter::Num(run->average_process_seconds(), 3)});
      }
    }
    speedups.AddRow({BackboneName(backbone),
                     TablePrinter::Num(topofilter_time / enld_time, 2)});
  }
  table.Print("Fig. 6 — ENLD vs Topofilter across backbones (CIFAR100)");
  speedups.Print("Fig. 6 headline — process-time speedup per backbone");
  return 0;
}
