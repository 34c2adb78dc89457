// Durable-store I/O benchmark: CSV text serialization vs the binary shard
// format, for save and load, at several dataset sizes — plus the sharded
// (manifest + parallel load) path at 1/2/4 threads.
//
// Reported columns: wall seconds, on-disk bytes, and MB/s of *logical*
// dataset payload (features + labels + ids) actually moved. Binary shards
// are expected to win on both axes: no float formatting/parsing, ~2.4x
// smaller files for typical feature dims.
//
// ENLD_BENCH_ROWS (comma-separated row counts, default "2000,20000")
// overrides the sweep for quick CI runs. Pass --telemetry_out=report.json
// (or set ENLD_TELEMETRY) to dump the store span tree and `store/*`
// counters as a machine-readable run report, like bench_paper.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "common/telemetry/report.h"
#include "data/noise.h"
#include "data/serialization.h"
#include "data/synthetic.h"
#include "eval/reporting.h"
#include "store/manifest.h"
#include "store/shard.h"

namespace {

using namespace enld;

namespace fs = std::filesystem;

std::vector<size_t> RowCounts() {
  const char* env = std::getenv("ENLD_BENCH_ROWS");
  if (env != nullptr && *env != '\0') {
    std::vector<size_t> rows;
    const char* cursor = env;
    while (*cursor != '\0') {
      char* next = nullptr;
      const long parsed = std::strtol(cursor, &next, 10);
      if (next == cursor) break;
      if (parsed > 0) rows.push_back(static_cast<size_t>(parsed));
      cursor = *next == ',' ? next + 1 : next;
    }
    if (!rows.empty()) return rows;
  }
  return {2000, 20000};
}

Dataset MakeData(size_t rows) {
  SyntheticConfig config = Cifar100SimConfig();
  config.num_classes = 50;
  config.samples_per_class = (rows + 49) / 50;
  Dataset d = GenerateSynthetic(config);
  Rng rng(31);
  ApplyLabelNoise(&d, TransitionMatrix::Symmetric(d.num_classes, 0.2), rng);
  MaskMissingLabels(&d, 0.05, rng);
  return d;
}

/// Bytes of dataset payload a save/load actually moves (float32 features,
/// two int32 label columns, u64 ids) — the denominator for MB/s, so the
/// CSV and binary rows are comparable even though their files differ.
double LogicalMb(const Dataset& d) {
  const double bytes = static_cast<double>(d.size()) *
                       (static_cast<double>(d.dim()) * 4.0 + 4 + 4 + 8);
  return bytes / (1024.0 * 1024.0);
}

double FileMb(const fs::path& path) {
  return static_cast<double>(fs::file_size(path)) / (1024.0 * 1024.0);
}

double DirMb(const fs::path& dir) {
  double bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      bytes += static_cast<double>(entry.file_size());
    }
  }
  return bytes / (1024.0 * 1024.0);
}

constexpr int kReps = 5;

}  // namespace

int main(int argc, char** argv) {
  telemetry::ResetTelemetry();
  const fs::path dir =
      fs::temp_directory_path() / "enld_bench_store_io";
  fs::remove_all(dir);
  fs::create_directories(dir);

  TablePrinter table(
      {"rows", "format", "op", "seconds", "file_mb", "logical_mb_s"});

  for (size_t rows : RowCounts()) {
    const Dataset data = MakeData(rows);
    const double logical_mb = LogicalMb(data);
    const std::string label = std::to_string(data.size());

    // --- CSV ---
    const fs::path csv = dir / "data.csv";
    Stopwatch watch;
    for (int rep = 0; rep < kReps; ++rep) {
      ENLD_CHECK(SaveDatasetCsv(data, csv.string()).ok());
    }
    double seconds = watch.ElapsedSeconds() / kReps;
    table.AddRow({label, "csv", "save", TablePrinter::Num(seconds, 4),
                  TablePrinter::Num(FileMb(csv), 2),
                  TablePrinter::Num(logical_mb / seconds, 1)});

    watch.Restart();
    for (int rep = 0; rep < kReps; ++rep) {
      ENLD_CHECK(LoadDatasetCsv(csv.string()).ok());
    }
    seconds = watch.ElapsedSeconds() / kReps;
    table.AddRow({label, "csv", "load", TablePrinter::Num(seconds, 4),
                  TablePrinter::Num(FileMb(csv), 2),
                  TablePrinter::Num(logical_mb / seconds, 1)});

    // --- single binary shard ---
    const fs::path shard = dir / "data.bin";
    watch.Restart();
    for (int rep = 0; rep < kReps; ++rep) {
      ENLD_CHECK(store::SaveDatasetShard(data, shard.string()).ok());
    }
    seconds = watch.ElapsedSeconds() / kReps;
    table.AddRow({label, "shard", "save", TablePrinter::Num(seconds, 4),
                  TablePrinter::Num(FileMb(shard), 2),
                  TablePrinter::Num(logical_mb / seconds, 1)});

    watch.Restart();
    for (int rep = 0; rep < kReps; ++rep) {
      ENLD_CHECK(store::LoadDatasetShard(shard.string()).ok());
    }
    seconds = watch.ElapsedSeconds() / kReps;
    table.AddRow({label, "shard", "load", TablePrinter::Num(seconds, 4),
                  TablePrinter::Num(FileMb(shard), 2),
                  TablePrinter::Num(logical_mb / seconds, 1)});

    // --- sharded directory, parallel load at 1/2/4 threads ---
    const fs::path sharded = dir / "sharded";
    fs::remove_all(sharded);
    watch.Restart();
    ENLD_CHECK(store::SaveDatasetSharded(data, sharded.string(), "bench",
                                         /*rows_per_shard=*/1024)
                   .ok());
    seconds = watch.ElapsedSeconds();
    table.AddRow({label, "sharded", "save", TablePrinter::Num(seconds, 4),
                  TablePrinter::Num(DirMb(sharded), 2),
                  TablePrinter::Num(logical_mb / seconds, 1)});

    for (size_t threads : {1, 2, 4}) {
      SetParallelThreads(threads);
      watch.Restart();
      for (int rep = 0; rep < kReps; ++rep) {
        ENLD_CHECK(store::LoadDatasetSharded(sharded.string()).ok());
      }
      seconds = watch.ElapsedSeconds() / kReps;
      table.AddRow({label, "sharded",
                    "load@" + std::to_string(threads) + "t",
                    TablePrinter::Num(seconds, 4),
                    TablePrinter::Num(DirMb(sharded), 2),
                    TablePrinter::Num(logical_mb / seconds, 1)});
    }
    SetParallelThreads(0);
  }

  table.Print("store I/O — CSV vs binary shards");
  fs::remove_all(dir);

  // The store instruments every save/load: print the span tree and the
  // store/* counters, and dump the machine-readable report on request.
  telemetry::RunReport report = telemetry::CaptureRunReport();
  report.method = "store-io";
  std::printf("\n%s", TelemetrySummary(report).c_str());
  const std::string out_path = telemetry::TelemetryOutPath(argc, argv);
  if (!out_path.empty()) {
    const Status written = telemetry::WriteRunReport(report, out_path);
    std::printf("telemetry report -> %s: %s\n", out_path.c_str(),
                written.ToString().c_str());
    if (!written.ok()) return 1;
  }
  return 0;
}
