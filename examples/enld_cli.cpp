// Command-line driver: run any registered detector on any of the paper's
// synthetic tasks and print per-dataset and aggregate results, optionally
// exporting the workload to CSV. `enld_cli --help` enumerates the
// detector registry at runtime.
//
//   ./build/examples/enld_cli detect --dataset=cifar100 --detector=enld
//   ./build/examples/enld_cli detect --detector=probe --detector_opt \
//       sweep_points=64
//   ./build/examples/enld_cli detect --list_detectors
//
// Detection flags (`detect` subcommand, or flag-only invocation with the
// legacy --method= spelling):
//   --dataset=emnist|cifar100|tiny       task profile (default cifar100)
//   --noise=<0..1>                       pair-noise rate (default 0.2)
//   --detector=<registry key>            detector to run (default enld);
//                                        see --list_detectors for keys
//   --detector_opt k=v                   detector option (repeatable;
//                                        --detector_opt=k=v also works);
//                                        unknown keys / malformed values
//                                        are InvalidArgument errors
//   --list_detectors                     print every registered detector
//                                        with its option table and exit
//   --datasets=<n>                       stream length (default: paper's)
//   --export=<path.csv>                  also write the inventory as CSV
//   --telemetry_out=<path>               dump the run's telemetry report
//                                        (JSON, or CSV when path ends in
//                                        .csv); ENLD_TELEMETRY also works
//
// Durable-store subcommands (see docs/PERSISTENCE.md):
//   enld_cli ingest --out=<dir> [--dataset=...] [--noise=...]
//       [--rows_per_shard=<n>]
//     Materializes the task's inventory into <dir> as a sharded binary
//     dataset (manifest.json + shard-*.bin) and verifies it by loading
//     it back.
//   enld_cli snapshot --inventory=<dir> --snapshot_dir=<dir>
//       [--dataset=...]
//     Loads a sharded inventory, initializes a DataPlatform on it and
//     writes snapshot #1 into --snapshot_dir.
//   enld_cli resume --snapshot_dir=<dir> [--dataset=...] [--noise=...]
//       [--datasets=<n>]
//     Restores the platform from the latest snapshot and serves the
//     remaining requests of the task's stream, snapshotting after each.
//   enld_cli validate (--input=<path.csv> | --inventory=<dir>)
//       [--quarantine_out=<path.json>]
//     Runs per-sample admission checks (docs/ROBUSTNESS.md) on a dataset
//     without detection. CSV inputs load permissively so every bad cell is
//     reported instead of failing the load. Exit code 0 = all samples
//     admitted, 2 = some quarantined, 1 = hard error.
//
// Self-healing subcommands (docs/ROBUSTNESS.md §"Self-healing runbook"):
//   enld_cli repair <snapshot_dir> [--source=<dir>] [--dry_run]
//       [--allow_rollback] [--scrub_out=<path.json>]
//       [--repair_out=<path.json>]
//     Scrubs the whole snapshot lineage (per-section CRC walk) and heals
//     the snapshot CURRENT points at: damaged shards are rebuilt from
//     surviving sections, sibling snapshots, or the exact rows the
//     manifest names (--source adds a donor dataset directory); the
//     repaired snapshot publishes through the normal atomic staging path.
//     --dry_run plans without writing; --allow_rollback repoints CURRENT
//     at the newest intact snapshot when state.bin is unrepairable. Exit
//     code 0 = store clean or fully repaired (or dry-run plan complete),
//     4 = damage remains, 1 = hard error.
//   enld_cli replay <quarantine.json> (--input=<path.csv> |
//       --inventory=<dir>) [--snapshot_dir=<dir> [--dataset=...]]
//       [--request_id=<n>] [--replay_out=<path.json>]
//     Re-screens quarantined samples against corrected source data
//     (matched by sample id) through the normal admission path. With
//     --snapshot_dir, restores the platform, re-admits the survivors via
//     a real Process request stamped with --request_id, and snapshots the
//     result. Warns when the quarantine log was capacity-truncated. Exit
//     code 0 = every record readmitted, 2 = some still rejected or
//     missing from the source, 1 = hard error.
//
// Serving subcommand (see docs/OBSERVABILITY.md):
//   enld_cli stats <host:port> [--watch=<s>] [--retries=<n>] [--shutdown]
//     Scrapes a running enld_server's live stats/health document (kStats
//     frame) and prints the raw "enld-stats-v1" JSON to stdout. With
//     --watch=<s>, instead re-scrapes every s seconds and prints one
//     compact summary line per scrape until interrupted. --shutdown sends
//     a shutdown frame after the (final) scrape, so CI drills can collect
//     stats and stop the server in one invocation. Scrapes retry the same
//     retryable wire-failure class as detect requests.
//
// Robustness flags (ingest / snapshot / resume):
//   --max_retries=<n>        cap store IO retry attempts (default 5)
//   --strict_admission=1     reject whole requests containing any invalid
//                            sample instead of quarantining per sample
//   --request_deadline=<s>   per-request budget in seconds; requests over
//                            budget fail with DeadlineExceeded instead of
//                            stalling the stream (0 = no deadline)
//   --snapshot_keep=<n>      retain only the newest n snapshots after each
//                            save (0 = keep all). Like the admission
//                            knobs, both are outside the snapshot config
//                            fingerprint, so they may differ between the
//                            writer and the resumer.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "common/table.h"
#include "common/telemetry/report.h"
#include "data/serialization.h"
#include "detect/registry.h"
#include "enld/platform.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "eval/paper_setup.h"
#include "eval/reporting.h"
#include "enld/admission.h"
#include "flags.h"
#include "rpc/client.h"
#include "store/io.h"
#include "store/json.h"
#include "store/manifest.h"
#include "store/quarantine.h"
#include "store/repair.h"
#include "store/replay.h"
#include "store/scrub.h"
#include "store/snapshot.h"

namespace {

using namespace enld;

/// Collects every `--detector_opt k=v` / `--detector_opt=k=v` pair.
/// Returns false (with a message on stderr) on a malformed flag; the
/// key/value semantics themselves are validated by the registry.
bool CollectDetectorOptions(int argc, char** argv,
                            detect::DetectorOptions* options) {
  for (int i = 1; i < argc; ++i) {
    std::string pair;
    if (std::strcmp(argv[i], "--detector_opt") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--detector_opt expects a k=v argument\n");
        return false;
      }
      pair = argv[++i];
    } else if (std::strncmp(argv[i], "--detector_opt=", 15) == 0) {
      pair = argv[i] + 15;
    } else {
      continue;
    }
    const size_t eq = pair.find('=');
    if (eq == std::string::npos || eq == 0) {
      std::fprintf(stderr, "bad --detector_opt '%s' (expected k=v)\n",
                   pair.c_str());
      return false;
    }
    (*options)[pair.substr(0, eq)] = pair.substr(eq + 1);
  }
  return true;
}

/// Enumerates the detector table: one line per detector, plus its
/// options. The listing is generated at runtime, so a new table row shows
/// up without touching the CLI.
void PrintDetectorList(FILE* out) {
  const std::vector<detect::DetectorInfo> detectors =
      detect::ListDetectors();
  std::fprintf(out, "registered detectors (%zu):\n", detectors.size());
  for (const detect::DetectorInfo& info : detectors) {
    std::fprintf(out, "  %-13s %-13s %s\n", info.key.c_str(),
                 info.display_name.c_str(), info.description.c_str());
    for (const detect::OptionSpec& option : info.options) {
      std::fprintf(out, "      %s=%s  %s\n", option.key.c_str(),
                   option.default_value().c_str(),
                   option.description.c_str());
    }
  }
}

/// `--help`: static usage plus the runtime detector enumeration.
int RunHelp() {
  std::printf(
      "enld_cli — noisy-label detection driver for the paper's tasks\n"
      "\n"
      "usage:\n"
      "  enld_cli detect [--dataset=emnist|cifar100|tiny] [--noise=<0..1>]\n"
      "      [--detector=<key>] [--detector_opt k=v]... [--datasets=<n>]\n"
      "      [--export=<path.csv>] [--telemetry_out=<path>]\n"
      "  enld_cli detect --list_detectors\n"
      "  enld_cli ingest --out=<dir> [--dataset=...] [--noise=...]\n"
      "  enld_cli snapshot --inventory=<dir> --snapshot_dir=<dir>\n"
      "  enld_cli resume --snapshot_dir=<dir> [--datasets=<n>]\n"
      "  enld_cli validate (--input=<path.csv> | --inventory=<dir>)\n"
      "  enld_cli repair <snapshot_dir> [--source=<dir>] [--dry_run]\n"
      "      [--allow_rollback] [--scrub_out=<json>] [--repair_out=<json>]\n"
      "  enld_cli replay <quarantine.json> (--input=<path.csv> |\n"
      "      --inventory=<dir>) [--snapshot_dir=<dir>] [--request_id=<n>]\n"
      "      [--replay_out=<json>]\n"
      "  enld_cli stats <host:port> [--watch=<s>] [--shutdown]\n"
      "\n"
      "Flag-only invocations run detection too (legacy --method=<key>\n"
      "spelling). Full flag reference: header comment of this file and\n"
      "docs/DETECTORS.md.\n"
      "\n");
  PrintDetectorList(stdout);
  return 0;
}

bool ParseDataset(const std::string& name, PaperDataset* out) {
  if (name == "emnist") {
    *out = PaperDataset::kEmnist;
  } else if (name == "cifar100") {
    *out = PaperDataset::kCifar100;
  } else if (name == "tiny") {
    *out = PaperDataset::kTinyImagenet;
  } else {
    return false;
  }
  return true;
}

/// The platform configuration the `snapshot` and `resume` subcommands
/// share. Both must build it identically — a snapshot only restores into a
/// platform whose config fingerprint matches the one that wrote it.
/// Admission knobs are deliberately outside the fingerprint, so
/// --strict_admission may differ between the writer and the resumer.
DataPlatformConfig MakePlatformConfig(int argc, char** argv,
                                      PaperDataset dataset) {
  DataPlatformConfig config;
  config.enld = PaperEnldConfig(dataset);
  const std::string strict = flags::Value(argc, argv, "strict_admission", "0");
  config.admission.strict = strict == "1" || strict == "true";
  // Serving knobs: also excluded from the fingerprint (they change how
  // requests are scheduled and how many snapshots are retained, never what
  // detection computes).
  config.request_deadline_seconds =
      flags::Seconds(argc, argv, "request_deadline", 0.0);
  config.snapshot_keep_last =
      flags::Integer(argc, argv, "snapshot_keep", 0, 0);
  return config;
}

/// Honors --max_retries by resizing the store-wide IO retry policy. Call
/// before any store traffic.
void ApplyRetryFlag(int argc, char** argv) {
  store::DefaultIoRetryPolicy().max_attempts = flags::Integer(
      argc, argv, "max_retries", store::DefaultIoRetryPolicy().max_attempts);
}

/// `enld_cli ingest`: materialize the inventory as a sharded binary
/// dataset and prove the round trip by loading it back.
int RunIngest(int argc, char** argv) {
  const std::string out_dir = flags::Value(argc, argv, "out");
  if (out_dir.empty()) {
    std::fprintf(stderr, "ingest requires --out=<dir>\n");
    return 1;
  }
  ApplyRetryFlag(argc, argv);
  PaperDataset dataset = PaperDataset::kCifar100;
  if (!ParseDataset(flags::Value(argc, argv, "dataset", "cifar100"),
                    &dataset)) {
    std::fprintf(stderr, "unknown --dataset\n");
    return 1;
  }
  const double noise = flags::Rate(argc, argv, "noise", 0.2);
  const size_t rows_per_shard = flags::Integer(
      argc, argv, "rows_per_shard", store::kDefaultRowsPerShard);

  const Workload workload =
      BuildWorkload(PaperWorkloadConfig(dataset, noise));
  const Status saved = store::SaveDatasetSharded(
      workload.inventory, out_dir, "inventory", rows_per_shard);
  if (!saved.ok()) {
    std::fprintf(stderr, "ingest failed: %s\n", saved.ToString().c_str());
    return 1;
  }

  const StatusOr<store::DatasetManifest> manifest =
      store::ReadDatasetManifest(out_dir);
  if (!manifest.ok()) {
    std::fprintf(stderr, "manifest read-back failed: %s\n",
                 manifest.status().ToString().c_str());
    return 1;
  }
  const StatusOr<Dataset> loaded = store::LoadDatasetSharded(out_dir);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load-back failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  uint64_t total_bytes = 0;
  for (const store::ShardEntry& shard : manifest->shards) {
    total_bytes += shard.bytes;
  }
  std::printf(
      "ingested %s inventory -> %s: %llu rows x %llu features, %d classes, "
      "%zu shard(s), %llu bytes; load-back OK\n",
      PaperDatasetName(dataset), out_dir.c_str(),
      static_cast<unsigned long long>(manifest->num_rows),
      static_cast<unsigned long long>(manifest->dim), manifest->num_classes,
      manifest->shards.size(),
      static_cast<unsigned long long>(total_bytes));
  return 0;
}

/// `enld_cli snapshot`: stand a platform up on a previously ingested
/// inventory and write the first snapshot.
int RunSnapshot(int argc, char** argv) {
  const std::string inventory_dir = flags::Value(argc, argv, "inventory");
  const std::string snapshot_dir = flags::Value(argc, argv, "snapshot_dir");
  if (inventory_dir.empty() || snapshot_dir.empty()) {
    std::fprintf(stderr,
                 "snapshot requires --inventory=<dir> --snapshot_dir=<dir>\n");
    return 1;
  }
  PaperDataset dataset = PaperDataset::kCifar100;
  if (!ParseDataset(flags::Value(argc, argv, "dataset", "cifar100"),
                    &dataset)) {
    std::fprintf(stderr, "unknown --dataset\n");
    return 1;
  }
  ApplyRetryFlag(argc, argv);

  const StatusOr<Dataset> inventory =
      store::LoadDatasetSharded(inventory_dir);
  if (!inventory.ok()) {
    std::fprintf(stderr, "cannot load inventory: %s\n",
                 inventory.status().ToString().c_str());
    return 1;
  }

  DataPlatform platform(MakePlatformConfig(argc, argv, dataset));
  const Status init = platform.Initialize(inventory.value());
  if (!init.ok()) {
    std::fprintf(stderr, "initialization failed: %s\n",
                 init.ToString().c_str());
    return 1;
  }
  const Status saved = platform.SaveSnapshot(snapshot_dir);
  if (!saved.ok()) {
    std::fprintf(stderr, "snapshot failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  const store::SnapshotStore snapshots(snapshot_dir);
  const StatusOr<uint64_t> seq = snapshots.LatestSeq();
  std::printf("platform initialized on %zu samples; snapshot %llu -> %s\n",
              inventory.value().size(),
              static_cast<unsigned long long>(seq.ok() ? seq.value() : 0),
              snapshot_dir.c_str());
  return 0;
}

/// `enld_cli resume`: restore from the latest snapshot and serve the
/// remaining requests of the task's stream.
int RunResume(int argc, char** argv) {
  const std::string snapshot_dir = flags::Value(argc, argv, "snapshot_dir");
  if (snapshot_dir.empty()) {
    std::fprintf(stderr, "resume requires --snapshot_dir=<dir>\n");
    return 1;
  }
  PaperDataset dataset = PaperDataset::kCifar100;
  if (!ParseDataset(flags::Value(argc, argv, "dataset", "cifar100"),
                    &dataset)) {
    std::fprintf(stderr, "unknown --dataset\n");
    return 1;
  }
  const double noise = flags::Rate(argc, argv, "noise", 0.2);
  ApplyRetryFlag(argc, argv);

  WorkloadConfig workload_config = PaperWorkloadConfig(dataset, noise);
  workload_config.stream.num_datasets = flags::Integer(
      argc, argv, "datasets", workload_config.stream.num_datasets);
  const Workload workload = BuildWorkload(workload_config);

  DataPlatform platform(MakePlatformConfig(argc, argv, dataset));
  const Status restored = platform.RestoreFromSnapshot(snapshot_dir);
  if (!restored.ok()) {
    std::fprintf(stderr, "restore failed: %s\n",
                 restored.ToString().c_str());
    return 1;
  }
  const size_t start = static_cast<size_t>(platform.stats().requests);
  std::printf("restored platform from %s at request %zu of %zu\n",
              snapshot_dir.c_str(), start, workload.incremental.size());

  for (size_t i = start; i < workload.incremental.size(); ++i) {
    const Dataset& arriving = workload.incremental[i];
    const StatusOr<DetectionResult> result = platform.Process(arriving);
    if (!result.ok()) {
      std::fprintf(stderr, "request failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    const DetectionMetrics m =
        EvaluateDetection(arriving, result->noisy_indices);
    std::printf("request %2zu: %3zu samples -> %2zu flagged noisy (F1 %.3f)\n",
                i + 1, arriving.size(), result->noisy_indices.size(), m.f1);
    const Status saved = platform.SaveSnapshot(snapshot_dir);
    if (!saved.ok()) {
      std::fprintf(stderr, "snapshot failed: %s\n",
                   saved.ToString().c_str());
      return 1;
    }
  }
  const PlatformStats& stats = platform.stats();
  std::printf("stream complete: %lu requests served, %lu samples flagged\n",
              static_cast<unsigned long>(stats.requests),
              static_cast<unsigned long>(stats.samples_flagged_noisy));
  return 0;
}

/// `enld_cli validate`: admission checks without detection. Exit code 0
/// when every sample is admitted, 2 when any is quarantined, 1 on a hard
/// error (unreadable input, structural corruption).
int RunValidate(int argc, char** argv) {
  const std::string input = flags::Value(argc, argv, "input");
  const std::string inventory_dir = flags::Value(argc, argv, "inventory");
  const std::string quarantine_out =
      flags::Value(argc, argv, "quarantine_out");
  if (input.empty() == inventory_dir.empty()) {
    std::fprintf(stderr,
                 "validate requires exactly one of --input=<path.csv> or "
                 "--inventory=<dir>\n");
    return 1;
  }
  ApplyRetryFlag(argc, argv);

  Dataset dataset;
  std::string source;
  if (!input.empty()) {
    // Permissive load: bad cells arrive as NaN / out-of-range labels so
    // the screen below can name every offending row.
    CsvLoadOptions options;
    options.permissive = true;
    StatusOr<Dataset> loaded = LoadDatasetCsv(input, options);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", input.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    dataset = std::move(loaded).value();
    source = input;
  } else {
    StatusOr<Dataset> loaded = store::LoadDatasetSharded(inventory_dir);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", inventory_dir.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    dataset = std::move(loaded).value();
    source = inventory_dir;
  }

  AdmissionResult screen = ScreenDataset(dataset, 0);
  uint64_t by_reason[kNumRejectionReasons] = {0, 0, 0};
  QuarantineLog log(screen.rejected.size() + 1);
  for (QuarantineRecord& record : screen.rejected) {
    ++by_reason[static_cast<size_t>(record.reason)];
    log.Add(std::move(record));
  }

  std::printf("validate %s: %zu sample(s), %zu admitted, %zu quarantined\n",
              source.c_str(), dataset.size(), screen.admitted.size(),
              log.records().size());
  for (size_t r = 0; r < kNumRejectionReasons; ++r) {
    if (by_reason[r] == 0) continue;
    std::printf("  %s: %llu\n",
                RejectionReasonName(static_cast<RejectionReason>(r)),
                static_cast<unsigned long long>(by_reason[r]));
  }
  for (const QuarantineRecord& record : log.records()) {
    std::printf("  row %zu (id %llu): %s\n", record.row,
                static_cast<unsigned long long>(record.sample_id),
                record.detail.c_str());
  }
  if (!quarantine_out.empty()) {
    const Status written = store::WriteQuarantineJson(log, quarantine_out);
    if (!written.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", quarantine_out.c_str(),
                   written.ToString().c_str());
      return 1;
    }
    std::printf("quarantine log -> %s\n", quarantine_out.c_str());
  }
  return log.records().empty() ? 0 : 2;
}

/// `enld_cli repair`: scrub the snapshot lineage and heal the snapshot
/// CURRENT points at (docs/ROBUSTNESS.md §"Self-healing runbook"). Exit
/// code 0 = clean or repaired, 4 = damage remains, 1 = hard error.
int RunRepair(int argc, char** argv) {
  std::string snapshot_dir = flags::Value(argc, argv, "snapshot_dir");
  if (argc > 2 && argv[2][0] != '-') snapshot_dir = argv[2];
  if (snapshot_dir.empty()) {
    std::fprintf(stderr,
                 "repair requires <snapshot_dir> (or --snapshot_dir=)\n");
    return 1;
  }
  ApplyRetryFlag(argc, argv);

  store::RepairOptions options;
  options.source_dir = flags::Value(argc, argv, "source");
  options.dry_run = flags::Has(argc, argv, "dry_run");
  options.allow_rollback = flags::Has(argc, argv, "allow_rollback");

  const StatusOr<store::RepairReport> repaired =
      store::RepairSnapshotStore(snapshot_dir, options);
  if (!repaired.ok()) {
    std::fprintf(stderr, "repair failed: %s\n",
                 repaired.status().ToString().c_str());
    return 1;
  }
  const store::RepairReport& report = repaired.value();

  const std::string scrub_out = flags::Value(argc, argv, "scrub_out");
  if (!scrub_out.empty()) {
    const Status written = store::WriteScrubReportJson(report.scrub, scrub_out);
    if (!written.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", scrub_out.c_str(),
                   written.ToString().c_str());
      return 1;
    }
    std::printf("scrub report -> %s\n", scrub_out.c_str());
  }
  const std::string repair_out = flags::Value(argc, argv, "repair_out");
  if (!repair_out.empty()) {
    const Status written = store::WriteRepairReportJson(report, repair_out);
    if (!written.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", repair_out.c_str(),
                   written.ToString().c_str());
      return 1;
    }
    std::printf("repair report -> %s\n", repair_out.c_str());
  }

  std::printf(
      "scrub %s: %zu snapshot(s), %llu file(s), %llu section(s), "
      "%zu finding(s)\n",
      snapshot_dir.c_str(), report.scrub.scrubbed.size(),
      static_cast<unsigned long long>(report.scrub.files_checked),
      static_cast<unsigned long long>(report.scrub.sections_checked),
      report.scrub.findings.size());
  for (const store::ScrubFinding& finding : report.scrub.findings) {
    std::printf("  finding: %s %s %s (%s)\n", finding.file.c_str(),
                finding.section.c_str(), finding.reason.c_str(),
                finding.detail.c_str());
  }
  for (const store::RepairAction& action : report.actions) {
    if (action.source.empty()) {
      std::printf("  %s: %s via %s\n", report.dry_run ? "plan" : "repair",
                  action.file.c_str(), action.method.c_str());
    } else {
      std::printf("  %s: %s via %s from %s\n",
                  report.dry_run ? "plan" : "repair", action.file.c_str(),
                  action.method.c_str(), action.source.c_str());
    }
  }
  if (report.clean) {
    std::printf("store is clean; nothing to repair\n");
    return 0;
  }
  if (!report.failure.empty()) {
    std::fprintf(stderr, "store is NOT healed: %s\n", report.failure.c_str());
    return 4;
  }
  if (report.dry_run) {
    std::printf("dry run: %zu action(s) planned for %s; nothing written\n",
                report.actions.size(),
                store::SnapshotStore::DirName(report.target_seq).c_str());
    return 0;
  }
  std::printf("repaired %s -> published %s (%zu action(s))\n",
              store::SnapshotStore::DirName(report.target_seq).c_str(),
              store::SnapshotStore::DirName(report.published_seq).c_str(),
              report.actions.size());
  return 0;
}

/// `enld_cli replay`: re-screen quarantined samples against corrected
/// source data and re-admit the survivors. Exit code 0 = every record
/// readmitted, 2 = some still rejected or missing, 1 = hard error.
int RunReplay(int argc, char** argv) {
  std::string quarantine_path = flags::Value(argc, argv, "quarantine");
  if (argc > 2 && argv[2][0] != '-') quarantine_path = argv[2];
  if (quarantine_path.empty()) {
    std::fprintf(stderr,
                 "replay requires <quarantine.json> (or --quarantine=)\n");
    return 1;
  }
  const std::string input = flags::Value(argc, argv, "input");
  const std::string inventory_dir = flags::Value(argc, argv, "inventory");
  if (input.empty() == inventory_dir.empty()) {
    std::fprintf(stderr,
                 "replay requires exactly one of --input=<path.csv> or "
                 "--inventory=<dir> as the corrected source data\n");
    return 1;
  }
  ApplyRetryFlag(argc, argv);

  const StatusOr<store::QuarantineFile> log =
      store::ReadQuarantineJson(quarantine_path);
  if (!log.ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", quarantine_path.c_str(),
                 log.status().ToString().c_str());
    return 1;
  }
  if (log.value().truncated) {
    std::fprintf(stderr,
                 "warning: %s is truncated (%llu quarantined, %zu recorded) "
                 "— dropped records cannot be replayed\n",
                 quarantine_path.c_str(),
                 static_cast<unsigned long long>(log.value().total),
                 log.value().records.size());
  }

  // The corrected source, loaded exactly like `validate` loads its input.
  Dataset source;
  std::string source_name;
  if (!input.empty()) {
    CsvLoadOptions options;
    options.permissive = true;
    StatusOr<Dataset> loaded = LoadDatasetCsv(input, options);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", input.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    source = std::move(loaded).value();
    source_name = input;
  } else {
    StatusOr<Dataset> loaded = store::LoadDatasetSharded(inventory_dir);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", inventory_dir.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    source = std::move(loaded).value();
    source_name = inventory_dir;
  }

  // With a snapshot directory, readmitted rows go through a real Process
  // request on the restored platform and the result is snapshotted.
  const std::string snapshot_dir = flags::Value(argc, argv, "snapshot_dir");
  std::unique_ptr<DataPlatform> platform;
  if (!snapshot_dir.empty()) {
    PaperDataset dataset = PaperDataset::kCifar100;
    if (!ParseDataset(flags::Value(argc, argv, "dataset", "cifar100"),
                      &dataset)) {
      std::fprintf(stderr, "unknown --dataset\n");
      return 1;
    }
    platform =
        std::make_unique<DataPlatform>(MakePlatformConfig(argc, argv, dataset));
    const Status restored = platform->RestoreFromSnapshot(snapshot_dir);
    if (!restored.ok()) {
      std::fprintf(stderr, "restore failed: %s\n",
                   restored.ToString().c_str());
      return 1;
    }
  }

  const uint64_t request_id = flags::Integer(argc, argv, "request_id", 0, 0);
  const StatusOr<store::ReplayReport> replayed = store::ReplayQuarantine(
      log.value(), source, platform.get(), request_id);
  if (!replayed.ok()) {
    std::fprintf(stderr, "replay failed: %s\n",
                 replayed.status().ToString().c_str());
    return 1;
  }
  const store::ReplayReport& report = replayed.value();

  std::printf(
      "replay %s against %s: %llu record(s), %llu readmitted, %llu still "
      "rejected, %llu missing\n",
      quarantine_path.c_str(), source_name.c_str(),
      static_cast<unsigned long long>(report.records),
      static_cast<unsigned long long>(report.readmitted),
      static_cast<unsigned long long>(report.still_rejected),
      static_cast<unsigned long long>(report.missing));
  for (const store::ReplayOutcome& outcome : report.outcomes) {
    std::printf("  id %llu: %s (was %s%s%s)\n",
                static_cast<unsigned long long>(outcome.sample_id),
                outcome.verdict.c_str(), outcome.prior_reason.c_str(),
                outcome.reason.empty() ? "" : "; now ",
                outcome.reason.c_str());
  }
  if (report.processed) {
    if (report.process_status != "ok") {
      std::fprintf(stderr, "re-admission Process failed: %s\n",
                   report.process_status.c_str());
      return 1;
    }
    std::printf(
        "re-admitted %llu sample(s) via request_id %llu (%llu flagged "
        "noisy)\n",
        static_cast<unsigned long long>(report.readmitted),
        static_cast<unsigned long long>(report.request_id),
        static_cast<unsigned long long>(report.process_flagged_noisy));
    const Status saved = platform->SaveSnapshot(snapshot_dir);
    if (!saved.ok()) {
      std::fprintf(stderr, "snapshot failed: %s\n", saved.ToString().c_str());
      return 1;
    }
    std::printf("snapshot updated in %s\n", snapshot_dir.c_str());
  }

  const std::string replay_out = flags::Value(argc, argv, "replay_out");
  if (!replay_out.empty()) {
    const Status written = store::WriteReplayReportJson(report, replay_out);
    if (!written.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", replay_out.c_str(),
                   written.ToString().c_str());
      return 1;
    }
    std::printf("replay report -> %s\n", replay_out.c_str());
  }
  if (report.records == 0) {
    std::printf("quarantine log holds no records; nothing to replay\n");
    return 0;
  }
  return report.still_rejected == 0 && report.missing == 0 ? 0 : 2;
}

/// Digs `path` (dot-separated keys) out of a parsed stats document;
/// returns fallback when any step is missing or non-numeric.
double StatsNumber(const store::JsonValue& doc, const std::string& path,
                   double fallback) {
  const store::JsonValue* node = &doc;
  size_t start = 0;
  while (start <= path.size()) {
    const size_t dot = path.find('.', start);
    const std::string key = path.substr(
        start, dot == std::string::npos ? std::string::npos : dot - start);
    node = node->Find(key);
    if (node == nullptr) return fallback;
    if (dot == std::string::npos) break;
    start = dot + 1;
  }
  return node->is_number() ? node->AsNumber() : fallback;
}

/// `enld_cli stats`: scrape a running server's live stats document.
int RunStats(int argc, char** argv) {
  if (argc < 3 || argv[2][0] == '-') {
    std::fprintf(stderr, "stats requires <host:port> as its first argument\n");
    return 1;
  }
  const std::string target = argv[2];
  const size_t colon = target.rfind(':');
  uint64_t port = 0;
  if (colon == std::string::npos ||
      !flags::ParseInteger(target.substr(colon + 1), 1, 65535, &port)) {
    flags::Reject("stats target", target, "host:port, a port in [1, 65535]");
  }
  const double watch_seconds = flags::Seconds(argc, argv, "watch", 0.0);
  const size_t retries = flags::Integer(argc, argv, "retries", 8);
  const bool send_shutdown = flags::Has(argc, argv, "shutdown");

  rpc::ClientConfig client_config;
  client_config.host = target.substr(0, colon);
  client_config.port = static_cast<int>(port);
  client_config.retry.max_attempts = retries;
  rpc::RpcClient client(client_config);

  while (true) {
    const StatusOr<std::string> stats = client.Stats();
    if (!stats.ok()) {
      std::fprintf(stderr, "stats scrape failed: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    if (watch_seconds <= 0.0) {
      // One-shot: the raw document, ready for redirection into a file and
      // validation with tools/check_report.py stats.
      std::printf("%s\n", stats.value().c_str());
      break;
    }
    const StatusOr<store::JsonValue> doc =
        store::JsonValue::Parse(stats.value());
    if (!doc.ok()) {
      std::fprintf(stderr, "stats document unparseable: %s\n",
                   doc.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "up %7.1fs  req %6.0f  resp %6.0f  wire_err %4.0f  queue %3.0f  "
        "e2e p50 %.4fs p99 %.4fs\n",
        StatsNumber(*doc, "uptime_seconds", 0),
        StatsNumber(*doc, "server.requests", 0),
        StatsNumber(*doc, "server.responses", 0),
        StatsNumber(*doc, "server.wire_errors", 0),
        StatsNumber(*doc, "pipeline.queue_depth", 0),
        StatsNumber(*doc,
                    "metrics.histograms.rpc/e2e_seconds.quantiles.p50", 0),
        StatsNumber(*doc,
                    "metrics.histograms.rpc/e2e_seconds.quantiles.p99", 0));
    std::fflush(stdout);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<int>(watch_seconds * 1000)));
  }

  if (send_shutdown) {
    const Status stopped = client.SendShutdown();
    if (!stopped.ok()) {
      std::fprintf(stderr, "shutdown request failed: %s\n",
                   stopped.ToString().c_str());
      return 1;
    }
  }
  return 0;
}

/// `enld_cli detect` (also the flag-only invocation): run one registry
/// detector over a task's stream and report per-dataset and aggregate
/// quality.
int RunDetect(int argc, char** argv) {
  if (flags::Has(argc, argv, "list_detectors")) {
    PrintDetectorList(stdout);
    return 0;
  }

  const std::string dataset_name =
      flags::Value(argc, argv, "dataset", "cifar100");
  const double noise = flags::Rate(argc, argv, "noise", 0.2);
  // --detector= is the registry spelling; --method= the legacy one.
  const std::string method = flags::Value(
      argc, argv, "detector", flags::Value(argc, argv, "method", "enld"));
  const std::string export_path = flags::Value(argc, argv, "export");
  detect::DetectorOptions detector_options;
  if (!CollectDetectorOptions(argc, argv, &detector_options)) return 1;

  PaperDataset dataset = PaperDataset::kCifar100;
  if (dataset_name == "emnist") {
    dataset = PaperDataset::kEmnist;
  } else if (dataset_name == "tiny") {
    dataset = PaperDataset::kTinyImagenet;
  } else if (dataset_name != "cifar100") {
    std::fprintf(stderr, "unknown --dataset=%s\n", dataset_name.c_str());
    return 1;
  }
  WorkloadConfig workload_config = PaperWorkloadConfig(dataset, noise);
  workload_config.stream.num_datasets = flags::Integer(
      argc, argv, "datasets", workload_config.stream.num_datasets);
  const Workload workload = BuildWorkload(workload_config);

  if (!export_path.empty()) {
    const Status saved = SaveDatasetCsv(workload.inventory, export_path);
    std::printf("export inventory to %s: %s\n", export_path.c_str(),
                saved.ToString().c_str());
  }

  StatusOr<std::unique_ptr<NoisyLabelDetector>> created =
      detect::CreateDetector(method, detector_options,
                             PaperDetectorContext(dataset));
  if (!created.ok()) {
    // Typed registry errors: unknown detector, unknown option key,
    // malformed value — each names the valid alternatives.
    std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<NoisyLabelDetector> detector = std::move(created).value();

  std::printf("%s / %s / noise %.2f — %zu inventory samples, %zu arriving "
              "datasets\n",
              PaperDatasetName(dataset), detector->name().c_str(), noise,
              workload.inventory.size(), workload.incremental.size());

  const MethodRunResult run = RunDetector(detector.get(), workload);
  TablePrinter table({"dataset", "samples", "noisy_detected", "precision",
                      "recall", "f1", "seconds"});
  for (size_t i = 0; i < run.per_dataset.size(); ++i) {
    const DetectionMetrics& m = run.per_dataset[i];
    table.AddRow({std::to_string(i),
                  std::to_string(workload.incremental[i].size()),
                  std::to_string(m.detected), TablePrinter::Num(m.precision),
                  TablePrinter::Num(m.recall), TablePrinter::Num(m.f1),
                  TablePrinter::Num(run.process_seconds[i], 3)});
  }
  table.Print("per-dataset results");

  const DetectionMetrics avg = run.average();
  std::printf(
      "\naverage: P=%.4f R=%.4f F1=%.4f | setup %.2fs, avg process %.3fs\n",
      avg.precision, avg.recall, avg.f1, run.setup_seconds,
      run.average_process_seconds());

  std::printf("\n%s", TelemetrySummary(run.telemetry).c_str());
  const std::string telemetry_path =
      telemetry::TelemetryOutPath(argc, argv);
  if (!telemetry_path.empty()) {
    const Status written =
        telemetry::WriteRunReport(run.telemetry, telemetry_path);
    std::printf("telemetry report -> %s: %s\n", telemetry_path.c_str(),
                written.ToString().c_str());
    if (!written.ok()) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      return RunHelp();
    }
  }
  // Subcommand dispatch: a bare first argument selects a workflow;
  // flag-style arguments fall through to the detection driver.
  if (argc > 1 && argv[1][0] != '-') {
    const std::string subcommand = argv[1];
    if (subcommand == "detect") return RunDetect(argc, argv);
    if (subcommand == "ingest") return RunIngest(argc, argv);
    if (subcommand == "snapshot") return RunSnapshot(argc, argv);
    if (subcommand == "resume") return RunResume(argc, argv);
    if (subcommand == "validate") return RunValidate(argc, argv);
    if (subcommand == "repair") return RunRepair(argc, argv);
    if (subcommand == "replay") return RunReplay(argc, argv);
    if (subcommand == "stats") return RunStats(argc, argv);
    if (subcommand == "help") return RunHelp();
    std::fprintf(stderr,
                 "unknown subcommand '%s' (expected detect, ingest, "
                 "snapshot, resume, validate, repair, replay or stats)\n",
                 subcommand.c_str());
    return 1;
  }
  return RunDetect(argc, argv);
}
