#include "store/scrub.h"

#include <algorithm>
#include <filesystem>

#include "common/faults.h"
#include "common/retry.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/trace.h"
#include "store/io.h"
#include "store/json.h"
#include "store/manifest.h"
#include "store/shard.h"
#include "store/snapshot.h"

namespace enld {
namespace store {

namespace {

/// The finding reason for each kind of format fault, in FormatFault order.
const char* Reason(FormatFault fault) {
  static constexpr const char* kReasons[] = {"bad_magic", "truncated",
                                             "mismatch", "malformed"};
  return kReasons[static_cast<size_t>(fault)];
}

/// Collects findings for one scrub pass; binds the report plus the
/// current snapshot context so walk helpers stay small.
class Scrubber {
 public:
  explicit Scrubber(ScrubReport* report) : report_(report) {}

  void Add(uint64_t seq, const std::string& file, const std::string& section,
           const std::string& reason, const std::string& detail) {
    report_->findings.push_back({seq, file, section, reason, detail});
  }

  /// Reads one file through the "store/scrub_read" fault site, counting it
  /// into the report. On failure records a finding (reason "missing" for
  /// NotFound, "unreadable" otherwise) and returns the error.
  StatusOr<std::string> Read(uint64_t seq, const std::string& path,
                             const std::string& rel) {
    StatusOr<std::string> data = Status::Internal("not read");
    const Status status = RetryWithBackoff(
        DefaultIoRetryPolicy(), "scrub " + path, [&]() -> Status {
          ENLD_RETURN_IF_ERROR(faults::Check("store/scrub_read"));
          data = ReadFile(path);
          return data.ok() ? Status::OK() : data.status();
        });
    if (!status.ok()) {
      Add(seq, rel, "file",
          status.code() == StatusCode::kNotFound ? "missing" : "unreadable",
          status.message());
      return status;
    }
    ++report_->files_checked;
    report_->bytes_scrubbed += data.value().size();
    return data;
  }

  /// Records a finding per damaged section of a walk and counts the
  /// intact ones: every CRC mismatch (repair needs to know every
  /// surviving section), the truncation or wrong id the walk stopped at,
  /// and trailing bytes.
  void AddWalk(uint64_t seq, const std::string& rel,
               const SectionWalk& walk) {
    for (const Section& section : walk.sections) {
      ++report_->sections_checked;
      if (!section.crc_ok) {
        Add(seq, rel, "section-" + std::to_string(section.id),
            "crc_mismatch",
            "section " + std::to_string(section.id) +
                " payload fails its CRC");
      }
    }
    if (walk.fault_id != 0) {
      Add(seq, rel, "section-" + std::to_string(walk.fault_id),
          Reason(walk.fault), walk.fault_detail);
    } else if (walk.trailing_bytes != 0) {
      Add(seq, rel, "file", "trailing_bytes",
          std::to_string(walk.trailing_bytes) +
              " trailing bytes after last section");
    }
  }

  /// Structural walk of a state.bin buffer: header then per-section CRCs.
  void WalkState(uint64_t seq, const std::string& rel,
                 const std::string& data) {
    FormatFault fault = FormatFault::kMalformed;
    const StatusOr<SectionWalk> walk = WalkSnapshotState(data, &fault);
    if (!walk.ok()) {
      Add(seq, rel, "header", Reason(fault), walk.status().message());
      return;
    }
    AddWalk(seq, rel, walk.value());
  }

  /// Structural walk of a shard buffer, with its header row count checked
  /// against the dataset manifest's.
  void WalkShard(uint64_t seq, const std::string& rel,
                 const std::string& data, uint64_t expect_rows) {
    FormatFault fault = FormatFault::kMalformed;
    const StatusOr<ShardLayout> layout = WalkDatasetShard(data, &fault);
    if (!layout.ok()) {
      Add(seq, rel, "header", Reason(fault), layout.status().message());
      return;
    }
    if (layout->rows != expect_rows) {
      Add(seq, rel, "geometry", "mismatch",
          "header rows " + std::to_string(layout->rows) +
              " != manifest rows " + std::to_string(expect_rows));
    }
    AddWalk(seq, rel, layout->walk);
  }

 private:
  ScrubReport* report_;
};

/// Verifies one file against its manifest-recorded size and CRC.
void CheckAgainstManifest(Scrubber* scrub, uint64_t seq,
                          const std::string& rel, const std::string& data,
                          uint64_t bytes, uint32_t crc) {
  if (data.size() != bytes) {
    scrub->Add(seq, rel, "file", "size_mismatch",
               "file is " + std::to_string(data.size()) +
                   " bytes, manifest says " + std::to_string(bytes));
  }
  if (Crc32(data) != crc) {
    scrub->Add(seq, rel, "file", "crc_mismatch",
               "whole-file CRC32 does not match the manifest");
  }
}

void ScrubDatasetDir(Scrubber* scrub, uint64_t seq,
                     const std::string& dir, const std::string& rel) {
  const std::string manifest_rel = rel + "/manifest.json";
  StatusOr<std::string> text =
      scrub->Read(seq, dir + "/manifest.json", manifest_rel);
  if (!text.ok()) return;
  StatusOr<DatasetManifest> manifest = ParseDatasetManifest(text.value());
  if (!manifest.ok()) {
    scrub->Add(seq, manifest_rel, "manifest", "malformed",
               manifest.status().message());
    return;
  }
  for (const ShardEntry& entry : manifest.value().shards) {
    const std::string shard_rel = rel + "/" + entry.file;
    StatusOr<std::string> data =
        scrub->Read(seq, dir + "/" + entry.file, shard_rel);
    if (!data.ok()) continue;
    CheckAgainstManifest(scrub, seq, shard_rel, data.value(), entry.bytes,
                         entry.crc32);
    scrub->WalkShard(seq, shard_rel, data.value(), entry.rows);
  }
}

void ScrubSnapshotDir(Scrubber* scrub, ScrubReport* report, uint64_t seq,
                      const std::string& root) {
  const std::string name = SnapshotStore::DirName(seq);
  const std::string dir = root + "/" + name;
  report->scrubbed.push_back(seq);

  // The snapshot manifest drives the walk; when it is damaged the
  // conventional files are still scrubbed so repair knows what survives.
  const std::string manifest_rel = name + "/" + kSnapshotManifestFile;
  StatusOr<std::string> manifest_text =
      scrub->Read(seq, dir + "/" + kSnapshotManifestFile, manifest_rel);
  SnapshotManifest manifest;
  if (manifest_text.ok()) {
    manifest = ParseSnapshotManifest(manifest_text.value(), seq);
    for (const ManifestProblem& problem : manifest.problems) {
      scrub->Add(seq, manifest_rel, "manifest", Reason(problem.fault),
                 problem.detail);
    }
  }

  const std::string state_rel = name + "/" + kSnapshotStateFile;
  StatusOr<std::string> state =
      scrub->Read(seq, dir + "/" + kSnapshotStateFile, state_rel);
  if (state.ok()) {
    if (const SnapshotFileEntry* entry = manifest.Find(kSnapshotStateFile)) {
      CheckAgainstManifest(scrub, seq, state_rel, state.value(),
                           entry->bytes, entry->crc32);
    }
    scrub->WalkState(seq, state_rel, state.value());
  }

  const std::string model_rel = name + "/" + kSnapshotModelFile;
  StatusOr<std::string> model =
      scrub->Read(seq, dir + "/" + kSnapshotModelFile, model_rel);
  const SnapshotFileEntry* model_entry = manifest.Find(kSnapshotModelFile);
  if (model.ok() && model_entry != nullptr) {
    CheckAgainstManifest(scrub, seq, model_rel, model.value(),
                         model_entry->bytes, model_entry->crc32);
  }

  for (const char* dataset : {kSnapshotTrainDir, kSnapshotCandidateDir}) {
    std::error_code ec;
    if (!std::filesystem::is_directory(dir + "/" + dataset, ec)) {
      scrub->Add(seq, name + "/" + dataset, "manifest", "missing",
                 std::string("dataset directory ") + dataset + " is missing");
      continue;
    }
    ScrubDatasetDir(scrub, seq, dir + "/" + dataset,
                    name + "/" + dataset);
  }
}

}  // namespace

bool ScrubReport::snapshot_clean(uint64_t seq) const {
  if (std::find(scrubbed.begin(), scrubbed.end(), seq) == scrubbed.end()) {
    return false;
  }
  for (const ScrubFinding& finding : findings) {
    if (finding.seq == seq) return false;
  }
  return true;
}

std::vector<uint64_t> ScrubReport::intact_seqs() const {
  std::vector<uint64_t> intact;
  for (uint64_t seq : scrubbed) {
    if (snapshot_clean(seq)) intact.push_back(seq);
  }
  return intact;
}

StatusOr<ScrubReport> ScrubSnapshotStore(const std::string& root) {
  ENLD_TRACE_SPAN("store/scrub");
  std::error_code ec;
  if (!std::filesystem::is_directory(root, ec) || ec) {
    return Status::NotFound("snapshot root " + root +
                            " is not a readable directory");
  }

  ScrubReport report;
  report.root = root;
  Scrubber scrub(&report);

  // CURRENT first (store-level, seq 0 in findings).
  const SnapshotStore store(root);
  StatusOr<std::string> current =
      scrub.Read(0, root + "/" + kSnapshotCurrentFile, kSnapshotCurrentFile);
  if (current.ok()) {
    const StatusOr<uint64_t> seq = store.LatestSeq();
    if (!seq.ok()) {
      scrub.Add(0, kSnapshotCurrentFile, "pointer", "malformed",
                seq.status().message());
    } else if (!std::filesystem::is_directory(
                   root + "/" + SnapshotStore::DirName(seq.value()), ec)) {
      scrub.Add(0, kSnapshotCurrentFile, "pointer", "dangling",
                "CURRENT points at missing directory " +
                    SnapshotStore::DirName(seq.value()));
    } else {
      report.current_seq = seq.value();
    }
  }

  for (uint64_t seq : store.ListSeqs()) {
    ScrubSnapshotDir(&scrub, &report, seq, root);
  }

  auto& registry = telemetry::MetricsRegistry::Global();
  static telemetry::Counter* runs = registry.GetCounter("store/scrub_runs");
  static telemetry::Counter* files = registry.GetCounter("store/scrub_files");
  static telemetry::Counter* found =
      registry.GetCounter("store/scrub_findings");
  runs->Increment();
  files->Add(report.files_checked);
  found->Add(report.findings.size());
  return report;
}

Status WriteScrubReportJson(const ScrubReport& report,
                            const std::string& path) {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", JsonValue::String("enld-scrub-v1"));
  doc.Set("root", JsonValue::String(report.root));
  doc.Set("current_seq",
          JsonValue::Number(static_cast<double>(report.current_seq)));
  JsonValue scrubbed = JsonValue::Array();
  for (uint64_t seq : report.scrubbed) {
    scrubbed.items().push_back(
        JsonValue::Number(static_cast<double>(seq)));
  }
  doc.Set("scrubbed", std::move(scrubbed));
  JsonValue intact = JsonValue::Array();
  for (uint64_t seq : report.intact_seqs()) {
    intact.items().push_back(JsonValue::Number(static_cast<double>(seq)));
  }
  doc.Set("intact", std::move(intact));
  doc.Set("files_checked",
          JsonValue::Number(static_cast<double>(report.files_checked)));
  doc.Set("sections_checked",
          JsonValue::Number(static_cast<double>(report.sections_checked)));
  doc.Set("bytes_scrubbed",
          JsonValue::Number(static_cast<double>(report.bytes_scrubbed)));
  doc.Set("clean", JsonValue::Bool(report.clean()));
  JsonValue findings = JsonValue::Array();
  for (const ScrubFinding& finding : report.findings) {
    JsonValue entry = JsonValue::Object();
    entry.Set("seq", JsonValue::Number(static_cast<double>(finding.seq)));
    entry.Set("file", JsonValue::String(finding.file));
    entry.Set("section", JsonValue::String(finding.section));
    entry.Set("reason", JsonValue::String(finding.reason));
    entry.Set("detail", JsonValue::String(finding.detail));
    findings.items().push_back(std::move(entry));
  }
  doc.Set("findings", std::move(findings));
  return WriteFileDurable(path, doc.ToString());
}

}  // namespace store
}  // namespace enld
