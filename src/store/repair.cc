#include "store/repair.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <utility>

#include "common/faults.h"
#include "common/retry.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/trace.h"
#include "nn/serialization.h"
#include "store/io.h"
#include "store/json.h"
#include "store/manifest.h"
#include "store/shard.h"
#include "store/snapshot.h"

namespace enld {
namespace store {

namespace {

/// One repair pass over a single target snapshot. Holds the donor list
/// (sibling seqs, newest first) plus a cache of donor datasets so a
/// multi-shard rebuild loads each donor at most once.
class Repairer {
 public:
  Repairer(std::string root, uint64_t target, std::vector<uint64_t> donors,
           const RepairOptions& options, RepairReport* report)
      : root_(std::move(root)),
        target_(target),
        donors_(std::move(donors)),
        options_(options),
        report_(report) {}

  uint64_t shards_rebuilt() const { return shards_rebuilt_; }

  void AddAction(const std::string& file, const std::string& method,
                 const std::string& source, const std::string& detail) {
    report_->actions.push_back({target_, file, method, source, detail});
  }

  /// Recovers model dims/weights: the target's own file when it verifies,
  /// else a sibling copy verified against `entry`, the model.bin entry of
  /// the target's manifest. Without that entry (a damaged manifest) no
  /// donor can be verified.
  Status RepairModel(const SnapshotFileEntry* entry,
                     SnapshotContents* contents) {
    const std::string rel =
        SnapshotStore::DirName(target_) + "/" + kSnapshotModelFile;
    if (TryModel(TargetDir() + "/" + kSnapshotModelFile, entry, contents)) {
      return Status::OK();
    }
    if (entry != nullptr) {
      for (uint64_t donor : donors_) {
        const std::string donor_dir = SnapshotStore::DirName(donor);
        if (TryModel(root_ + "/" + donor_dir + "/" + kSnapshotModelFile,
                     entry, contents)) {
          AddAction(rel, "donor_file", donor_dir + "/" + kSnapshotModelFile,
                    "sibling copy matches the manifest CRC");
          return Status::OK();
        }
      }
    }
    return Status::InvalidArgument(
        "model.bin is damaged and no sibling snapshot holds a "
        "manifest-verified copy");
  }

  /// Recovers one logical dataset ("train"/"candidate") of the target.
  StatusOr<Dataset> RepairDataset(const std::string& ds) {
    const std::string dir = TargetDir() + "/" + ds;
    const std::string rel = SnapshotStore::DirName(target_) + "/" + ds;
    StatusOr<DatasetManifest> manifest = ReadDatasetManifest(dir);
    if (!manifest.ok()) return RebuildDatasetManifest(dir, rel);

    Dataset out;
    bool first = true;
    uint64_t row_lo = 0;
    for (const ShardEntry& entry : manifest.value().shards) {
      StatusOr<Dataset> shard = RepairShard(ds, dir, rel, entry, row_lo);
      if (!shard.ok()) return shard.status();
      if (first) {
        out = std::move(shard.value());
        first = false;
      } else {
        out.Append(shard.value());
      }
      row_lo += entry.rows;
    }
    const DatasetManifest& m = manifest.value();
    if (out.size() != m.num_rows || out.dim() != m.dim ||
        out.num_classes != m.num_classes) {
      return Status::InvalidArgument(
          "rebuilt dataset " + ds + " disagrees with its manifest geometry");
    }
    return out;
  }

 private:
  std::string TargetDir() const {
    return root_ + "/" + SnapshotStore::DirName(target_);
  }

  /// Reads the model file at `path` once, checks it against `entry` when
  /// there is one, and decodes the same bytes.
  bool TryModel(const std::string& path, const SnapshotFileEntry* entry,
                SnapshotContents* contents) {
    StatusOr<std::string> bytes = ReadFile(path);
    if (!bytes.ok() ||
        (entry != nullptr && (bytes->size() != entry->bytes ||
                              Crc32(*bytes) != entry->crc32))) {
      return false;
    }
    StatusOr<ModelFile> model = DecodeModelFile(*bytes);
    if (!model.ok()) return false;
    contents->framework.model_dims = std::move(model.value().dims);
    contents->framework.model_weights = std::move(model.value().weights);
    return true;
  }

  /// Recovers one shard named by the dataset manifest. Tries, in order:
  /// the file as-is, an intra-file section rebuild, a sibling copy, and a
  /// donor-row re-encoding — each accepted only on an exact size + CRC
  /// match against the manifest entry.
  StatusOr<Dataset> RepairShard(const std::string& ds, const std::string& dir,
                                const std::string& rel,
                                const ShardEntry& entry, uint64_t row_lo) {
    const std::string shard_rel = rel + "/" + entry.file;
    StatusOr<std::string> bytes = ReadFile(dir + "/" + entry.file);
    if (bytes.ok() && Matches(bytes.value(), entry)) {
      StatusOr<Dataset> decoded = DecodeDatasetShard(bytes.value());
      if (decoded.ok() && decoded.value().size() == entry.rows) {
        return decoded;
      }
    }

    // 1. Section rebuild from the damaged bytes themselves.
    if (bytes.ok()) {
      StatusOr<Dataset> salvaged = SalvageDatasetShard(bytes.value());
      if (salvaged.ok()) {
        const std::string encoded = EncodeDatasetShard(salvaged.value());
        if (Matches(encoded, entry)) {
          AddAction(shard_rel, "section_rebuild", shard_rel,
                    "re-encoded from the shard's surviving sections");
          ++shards_rebuilt_;
          return salvaged;
        }
      }
    }

    // 2. The same file from a sibling snapshot.
    for (uint64_t donor : donors_) {
      const std::string donor_rel =
          SnapshotStore::DirName(donor) + "/" + ds + "/" + entry.file;
      StatusOr<std::string> donor_bytes = ReadFile(root_ + "/" + donor_rel);
      if (!donor_bytes.ok() || !Matches(donor_bytes.value(), entry)) continue;
      StatusOr<Dataset> decoded = DecodeDatasetShard(donor_bytes.value());
      if (!decoded.ok() || decoded.value().size() != entry.rows) continue;
      AddAction(shard_rel, "donor_file", donor_rel,
                "sibling copy matches the manifest CRC");
      ++shards_rebuilt_;
      return decoded;
    }

    // 3. Re-encode the exact rows [row_lo, row_lo + rows) the manifest
    //    names, from a sibling dataset or the operator's --source dir.
    std::vector<std::string> sources;
    for (uint64_t donor : donors_) {
      sources.push_back(SnapshotStore::DirName(donor) + "/" + ds);
    }
    if (!options_.source_dir.empty()) sources.push_back(options_.source_dir);
    for (const std::string& source : sources) {
      const Dataset* donor = DonorDataset(source);
      if (donor == nullptr || donor->size() < row_lo + entry.rows) continue;
      std::vector<size_t> rows(entry.rows);
      for (uint64_t i = 0; i < entry.rows; ++i) {
        rows[i] = static_cast<size_t>(row_lo + i);
      }
      Dataset candidate = donor->Subset(rows);
      const std::string encoded = EncodeDatasetShard(candidate);
      if (!Matches(encoded, entry)) continue;
      AddAction(shard_rel, "donor_rows", source,
                "rows " + std::to_string(row_lo) + ".." +
                    std::to_string(row_lo + entry.rows) +
                    " re-encoded to the manifest CRC");
      ++shards_rebuilt_;
      return candidate;
    }

    return Status::InvalidArgument(
        "shard " + shard_rel +
        " is unrepairable: no surviving sections, sibling copy or donor "
        "rows reproduce the manifest CRC");
  }

  /// Regenerates a dataset whose manifest.json is damaged: every shard
  /// file present must decode cleanly; Save rewrites the manifest.
  StatusOr<Dataset> RebuildDatasetManifest(const std::string& dir,
                                           const std::string& rel) {
    std::vector<std::string> names;
    std::error_code ec;
    for (const auto& item : std::filesystem::directory_iterator(dir, ec)) {
      const std::string name = item.path().filename().string();
      if (name.size() > 10 && name.compare(0, 6, "shard-") == 0 &&
          name.compare(name.size() - 4, 4, ".bin") == 0) {
        names.push_back(name);
      }
    }
    if (ec || names.empty()) {
      return Status::InvalidArgument("dataset " + rel +
                                     " has no readable shards to rebuild "
                                     "its manifest from");
    }
    std::sort(names.begin(), names.end());
    Dataset out;
    bool first = true;
    for (const std::string& name : names) {
      StatusOr<Dataset> shard = LoadDatasetShard(dir + "/" + name);
      if (!shard.ok()) {
        return Status::InvalidArgument(
            "dataset " + rel + " manifest is damaged and shard " + name +
            " does not decode cleanly: " + shard.status().message());
      }
      if (first) {
        out = std::move(shard.value());
        first = false;
      } else {
        out.Append(shard.value());
      }
    }
    AddAction(rel + "/manifest.json", "dataset_manifest_rebuild", rel,
              "regenerated from " + std::to_string(names.size()) +
                  " intact shards");
    return out;
  }

  bool Matches(const std::string& data, const ShardEntry& entry) const {
    return data.size() == entry.bytes && Crc32(data) == entry.crc32;
  }

  /// Loads (and caches) a donor dataset directory; nullptr when it does
  /// not load cleanly.
  const Dataset* DonorDataset(const std::string& source) {
    auto it = donor_cache_.find(source);
    if (it == donor_cache_.end()) {
      const std::string dir = source.front() == '/' || options_.source_dir == source
                                  ? source
                                  : root_ + "/" + source;
      StatusOr<Dataset> loaded = LoadDatasetSharded(dir);
      it = donor_cache_
               .emplace(source, loaded.ok()
                                    ? std::make_unique<Dataset>(
                                          std::move(loaded.value()))
                                    : nullptr)
               .first;
    }
    return it->second.get();
  }

  const std::string root_;
  const uint64_t target_;
  const std::vector<uint64_t> donors_;
  const RepairOptions& options_;
  RepairReport* report_;
  uint64_t shards_rebuilt_ = 0;
  std::map<std::string, std::unique_ptr<Dataset>> donor_cache_;
};

/// Durably rewrites CURRENT, through the repair fault site and the store
/// retry policy — the same discipline as a publish.
Status WriteCurrentPointer(const std::string& root, uint64_t seq) {
  return RetryWithBackoff(
      DefaultIoRetryPolicy(), "repair CURRENT", [&]() -> Status {
        ENLD_RETURN_IF_ERROR(faults::Check("store/repair_publish"));
        ENLD_RETURN_IF_ERROR(
            WriteFileDurable(root + "/" + kSnapshotCurrentFile,
                             SnapshotStore::DirName(seq) + "\n"));
        return SyncDir(root);
      });
}

/// Removes superseded damaged snapshot directories once a healthy snapshot
/// is reachable at `keep` — their bytes were either rebuilt into `keep` or
/// explicitly abandoned (rollback), and leaving them behind would alarm
/// every later scrub of the lineage. Best-effort: a failed removal is
/// recorded in the action detail, never an error (the next repair pass
/// converges on it).
void GcDamagedSnapshots(const std::string& root, const ScrubReport& scrub,
                        uint64_t keep, RepairReport* report) {
  for (uint64_t seq : scrub.scrubbed) {
    if (seq == keep || scrub.snapshot_clean(seq)) continue;
    std::error_code ec;
    std::filesystem::remove_all(
        std::filesystem::path(root) / SnapshotStore::DirName(seq), ec);
    report->actions.push_back(
        {seq, SnapshotStore::DirName(seq), "gc", "",
         ec ? "removal of the superseded damaged snapshot failed: " +
                  ec.message()
            : "superseded damaged snapshot removed after repair"});
  }
}

}  // namespace

StatusOr<RepairReport> RepairSnapshotStore(const std::string& root,
                                           const RepairOptions& options) {
  ENLD_TRACE_SPAN("store/repair");
  auto& registry = telemetry::MetricsRegistry::Global();
  static telemetry::Counter* runs = registry.GetCounter("store/repair_runs");
  static telemetry::Counter* published_counter =
      registry.GetCounter("store/repairs_published");
  static telemetry::Counter* shard_counter =
      registry.GetCounter("store/shards_rebuilt");
  runs->Increment();

  RepairReport report;
  report.root = root;
  report.dry_run = options.dry_run;
  StatusOr<ScrubReport> scrub = ScrubSnapshotStore(root);
  if (!scrub.ok()) return scrub.status();
  report.scrub = std::move(scrub.value());
  const std::vector<uint64_t> intact = report.scrub.intact_seqs();

  /// Fails the repair, naming the newest intact snapshot; with
  /// allow_rollback, repoints CURRENT at it instead.
  auto unrepairable = [&](const std::string& why) -> StatusOr<RepairReport> {
    report.failure = why;
    if (!intact.empty()) {
      report.failure +=
          "; newest intact snapshot is " + SnapshotStore::DirName(intact.back());
      if (options.allow_rollback) {
        const uint64_t back = intact.back();
        if (!options.dry_run) {
          ENLD_RETURN_IF_ERROR(WriteCurrentPointer(root, back));
        }
        report.actions.push_back(
            {back, kSnapshotCurrentFile, "rollback",
             SnapshotStore::DirName(back),
             "CURRENT repointed at the newest intact snapshot; the damaged "
             "snapshot's unique data is abandoned"});
        report.failure.clear();
        report.repaired = true;
        report.published_seq = back;
        if (!options.dry_run) {
          GcDamagedSnapshots(root, report.scrub, back, &report);
        }
      }
    }
    return report;
  };

  // Phase 1: a damaged CURRENT pointer is re-derived from the directories
  // on disk; the target snapshot itself is healed in phase 2.
  uint64_t target = report.scrub.current_seq;
  const SnapshotStore store(root);
  if (target == 0) {
    const std::vector<uint64_t> seqs = store.ListSeqs();
    if (seqs.empty()) {
      report.failure = "store has no snapshot directories to point CURRENT at";
      return report;
    }
    target = seqs.back();
    if (!options.dry_run) {
      ENLD_RETURN_IF_ERROR(WriteCurrentPointer(root, target));
    }
    report.actions.push_back(
        {target, kSnapshotCurrentFile, "current_rebuild",
         SnapshotStore::DirName(target),
         "CURRENT re-derived from the newest snapshot directory on disk"});
  }
  report.target_seq = target;

  if (report.scrub.snapshot_clean(target)) {
    if (!options.dry_run) {
      GcDamagedSnapshots(root, report.scrub, target, &report);
    }
    report.clean = report.actions.empty();
    report.repaired = !report.actions.empty() && !options.dry_run;
    report.published_seq = target;
    return report;
  }

  // Phase 2: rebuild the target snapshot's contents from what survives.
  std::vector<uint64_t> donors;
  for (auto it = report.scrub.scrubbed.rbegin();
       it != report.scrub.scrubbed.rend(); ++it) {
    if (*it != target) donors.push_back(*it);
  }
  Repairer repairer(root, target, donors, options, &report);
  const std::string dir = root + "/" + SnapshotStore::DirName(target);
  const std::string name = SnapshotStore::DirName(target);

  // A damaged manifest is not fatal — publishing regenerates it — but only
  // the entries it still yields can verify a donor.
  StatusOr<std::string> manifest_text =
      ReadFile(dir + "/" + kSnapshotManifestFile);
  const SnapshotManifest manifest =
      manifest_text.ok() ? ParseSnapshotManifest(manifest_text.value(), target)
                         : SnapshotManifest();

  // state.bin is the one artifact with no redundancy: its sections must
  // decode cleanly or the snapshot is unrepairable.
  SnapshotContents contents;
  StatusOr<std::string> state = ReadFile(dir + "/" + kSnapshotStateFile);
  if (!state.ok()) {
    return unrepairable("state.bin is unreadable (" + state.status().message() +
                        ") and holds the snapshot's only copy of its state");
  }
  const Status decoded = DecodeSnapshotState(state.value(), &contents);
  if (!decoded.ok() || contents.seq != target) {
    return unrepairable(
        "state.bin does not decode cleanly and holds the snapshot's only "
        "copy of its state" +
        (decoded.ok() ? std::string(" (seq mismatch)")
                      : ": " + decoded.message()));
  }

  const Status model =
      repairer.RepairModel(manifest.Find(kSnapshotModelFile), &contents);
  if (!model.ok()) return unrepairable(model.message());

  StatusOr<Dataset> train = repairer.RepairDataset(kSnapshotTrainDir);
  if (!train.ok()) return unrepairable(train.status().message());
  contents.framework.train_set =
      std::make_shared<const Dataset>(std::move(train.value()));
  StatusOr<Dataset> candidate = repairer.RepairDataset(kSnapshotCandidateDir);
  if (!candidate.ok()) return unrepairable(candidate.status().message());
  contents.framework.candidate_set =
      std::make_shared<const Dataset>(std::move(candidate.value()));
  const Status consistent = CheckSnapshotContents(contents);
  if (!consistent.ok()) {
    return unrepairable("rebuilt snapshot is inconsistent: " +
                        consistent.message());
  }

  // When the snapshot manifest itself was among the damage, publishing
  // regenerates it — record that as an explicit action.
  if (!manifest_text.ok() || !manifest.problems.empty()) {
    repairer.AddAction(name + "/" + kSnapshotManifestFile, "manifest_rebuild",
                       name, "snapshot manifest regenerated at publish");
  }

  shard_counter->Add(repairer.shards_rebuilt());

  if (options.dry_run) {
    report.published_seq = 0;
    return report;
  }

  // Publish through the normal atomic staging path: the repaired state
  // becomes a NEW sequence and CURRENT only advances after the rename, so
  // a crash here leaves the store exactly as the scrub found it.
  ENLD_RETURN_IF_ERROR(RetryWithBackoff(
      DefaultIoRetryPolicy(), "repair publish",
      [&]() -> Status { return faults::Check("store/repair_publish"); }));
  StatusOr<uint64_t> published = SnapshotStore(root).Save(contents);
  if (!published.ok()) return published.status();
  StatusOr<SnapshotContents> verify =
      SnapshotStore(root).Load(published.value());
  if (!verify.ok()) {
    return Status::Internal("repaired snapshot failed verification: " +
                            verify.status().message());
  }
  GcDamagedSnapshots(root, report.scrub, published.value(), &report);
  report.published_seq = published.value();
  report.repaired = true;
  published_counter->Increment();
  return report;
}

Status WriteRepairReportJson(const RepairReport& report,
                             const std::string& path) {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", JsonValue::String("enld-repair-v1"));
  doc.Set("root", JsonValue::String(report.root));
  doc.Set("target_seq",
          JsonValue::Number(static_cast<double>(report.target_seq)));
  doc.Set("published_seq",
          JsonValue::Number(static_cast<double>(report.published_seq)));
  doc.Set("clean", JsonValue::Bool(report.clean));
  doc.Set("repaired", JsonValue::Bool(report.repaired));
  doc.Set("dry_run", JsonValue::Bool(report.dry_run));
  doc.Set("failure", JsonValue::String(report.failure));
  doc.Set("scrub_findings",
          JsonValue::Number(static_cast<double>(report.scrub.findings.size())));
  JsonValue intact = JsonValue::Array();
  for (uint64_t seq : report.scrub.intact_seqs()) {
    intact.items().push_back(JsonValue::Number(static_cast<double>(seq)));
  }
  doc.Set("intact", std::move(intact));
  JsonValue actions = JsonValue::Array();
  for (const RepairAction& action : report.actions) {
    JsonValue entry = JsonValue::Object();
    entry.Set("seq", JsonValue::Number(static_cast<double>(action.seq)));
    entry.Set("file", JsonValue::String(action.file));
    entry.Set("method", JsonValue::String(action.method));
    entry.Set("source", JsonValue::String(action.source));
    entry.Set("detail", JsonValue::String(action.detail));
    actions.items().push_back(std::move(entry));
  }
  doc.Set("actions", std::move(actions));
  return WriteFileDurable(path, doc.ToString());
}

}  // namespace store
}  // namespace enld
