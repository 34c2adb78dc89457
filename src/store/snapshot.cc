#include "store/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/faults.h"
#include "common/retry.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/trace.h"
#include "nn/serialization.h"
#include "store/io.h"
#include "store/json.h"
#include "store/manifest.h"

namespace enld {
namespace store {

namespace {

constexpr char kSnapshotMagic[8] = {'E', 'N', 'L', 'D', 'S', 'N', 'P', '1'};
constexpr uint32_t kEndianTag = 0x01020304u;
constexpr uint32_t kSnapshotVersion = 3;
constexpr uint32_t kSectionCount = 6;
constexpr char kSnapshotSchema[] = "enld-snapshot-manifest-v1";
// Short aliases of the exported names in snapshot.h.
constexpr const char* kCurrentFile = kSnapshotCurrentFile;
constexpr const char* kManifestFile = kSnapshotManifestFile;
constexpr const char* kStateFile = kSnapshotStateFile;
constexpr const char* kModelFile = kSnapshotModelFile;
constexpr const char* kTrainDir = kSnapshotTrainDir;
constexpr const char* kCandidateDir = kSnapshotCandidateDir;

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = kFnvOffset;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= kFnvPrime;
  }
  return hash;
}

/// Canonical byte encodings for fingerprinting. Field order is part of the
/// fingerprint: appending new config fields keeps old fingerprints stable
/// only if they are appended at the end with their default values.
void AppendTrainConfig(std::string* out, const TrainConfig& config) {
  PutU64(out, config.epochs);
  PutU64(out, config.batch_size);
  PutU32(out, static_cast<uint32_t>(config.optimizer));
  PutF64(out, config.sgd.learning_rate);
  PutF64(out, config.sgd.momentum);
  PutF64(out, config.sgd.weight_decay);
  PutF64(out, config.adam.learning_rate);
  PutF64(out, config.adam.beta1);
  PutF64(out, config.adam.beta2);
  PutF64(out, config.adam.epsilon);
  PutF64(out, config.mixup_alpha);
  PutF64(out, config.lr_decay_per_epoch);
  PutU8(out, config.select_best_on_validation ? 1 : 0);
  PutU64(out, config.seed);
}

/// The sequence number a snapshot directory name ("snap-000042") encodes;
/// 0 when `name` is not one.
uint64_t SeqOfDirName(const std::string& name) {
  if (name.size() != 11 || name.compare(0, 5, "snap-") != 0) return 0;
  uint64_t seq = 0;
  for (size_t i = 5; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return 0;
    seq = seq * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  return seq;
}

std::string FingerprintHex(uint64_t fingerprint) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buffer;
}

}  // namespace

std::string EncodeSnapshotState(const SnapshotContents& contents) {
  std::string out;
  out.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  PutU32(&out, kEndianTag);
  PutU32(&out, kSnapshotVersion);
  PutU32(&out, kSectionCount);

  std::string payload;
  PutU64(&payload, contents.seq);
  PutU64(&payload, contents.config_fingerprint);
  PutU64(&payload, contents.inventory_dim);
  PutU32(&payload, static_cast<uint32_t>(contents.inventory_classes));
  PutSection(&out, kSnapshotSectionMeta, payload);

  payload.clear();
  PutU64(&payload, contents.stats.requests);
  PutU64(&payload, contents.stats.samples_processed);
  PutU64(&payload, contents.stats.samples_flagged_noisy);
  PutU64(&payload, contents.stats.model_updates);
  PutF64(&payload, contents.stats.total_process_seconds);
  PutSection(&out, kSnapshotSectionStats, payload);

  payload.clear();
  for (uint64_t word : contents.framework.rng.state) PutU64(&payload, word);
  PutF64(&payload, contents.framework.rng.cached_gaussian);
  PutU8(&payload, contents.framework.rng.has_cached_gaussian ? 1 : 0);
  PutSection(&out, kSnapshotSectionRng, payload);

  payload.clear();
  const size_t classes = contents.framework.conditional.size();
  PutU32(&payload, static_cast<uint32_t>(classes));
  for (const auto& row : contents.framework.conditional) {
    ENLD_CHECK_EQ(row.size(), classes);  // P~ is square by construction.
    for (double v : row) PutF64(&payload, v);
  }
  PutSection(&out, kSnapshotSectionConditional, payload);

  payload.clear();
  const auto& selected = contents.framework.selected_clean;
  PutU64(&payload, selected.size());
  std::string bitmap((selected.size() + 7) / 8, '\0');
  for (size_t i = 0; i < selected.size(); ++i) {
    if (selected[i] != 0) {
      bitmap[i / 8] |= static_cast<char>(1u << (i % 8));
    }
  }
  payload.append(bitmap);
  PutSection(&out, kSnapshotSectionSelected, payload);

  payload.clear();
  PutU64(&payload, contents.stats.samples_quarantined);
  PutU64(&payload, contents.stats.requests_rejected);
  PutU64(&payload, contents.stats.update_retries);
  PutU32(&payload, static_cast<uint32_t>(kNumRejectionReasons));
  for (size_t i = 0; i < kNumRejectionReasons; ++i) {
    PutU64(&payload, contents.stats.quarantined_by_reason[i]);
  }
  PutU8(&payload, contents.update_pending ? 1 : 0);
  PutU64(&payload, contents.stats.requests_deadline_exceeded);
  PutSection(&out, kSnapshotSectionAdmission, payload);
  return out;
}

StatusOr<SectionWalk> WalkSnapshotState(std::string_view data,
                                        FormatFault* fault) {
  if (data.substr(0, sizeof(kSnapshotMagic)) !=
      std::string_view(kSnapshotMagic, sizeof(kSnapshotMagic))) {
    return RejectFormat(FormatFault::kBadMagic,
                        "not an ENLD snapshot state file", fault);
  }
  BinaryReader reader(data);
  reader.Skip(sizeof(kSnapshotMagic));
  uint32_t endian = 0, version = 0, sections = 0;
  if (!reader.ReadU32(&endian) || !reader.ReadU32(&version) ||
      !reader.ReadU32(&sections)) {
    return RejectFormat(FormatFault::kTruncated,
                        "truncated snapshot state header", fault);
  }
  if (endian != kEndianTag) {
    return RejectFormat(
        FormatFault::kMismatch,
        "snapshot byte-order tag mismatch (foreign-endian or corrupt file)",
        fault);
  }
  if (version != kSnapshotVersion) {
    return RejectFormat(FormatFault::kMalformed,
                        "unsupported snapshot version " +
                            std::to_string(version),
                        fault);
  }
  if (sections != kSectionCount) {
    return RejectFormat(FormatFault::kMismatch,
                        "snapshot section count " + std::to_string(sections) +
                            " != " + std::to_string(kSectionCount),
                        fault);
  }
  return WalkSections(data, reader.offset(), kSectionCount);
}

Status DecodeSnapshotState(std::string_view data,
                           SnapshotContents* contents) {
  StatusOr<SectionWalk> walk = WalkSnapshotState(data);
  if (!walk.ok()) return walk.status();
  ENLD_RETURN_IF_ERROR(walk->Verify());
  auto payload = [&](uint32_t id) { return walk->sections[id - 1].payload; };

  {
    BinaryReader meta(payload(kSnapshotSectionMeta));
    uint32_t classes = 0;
    if (!meta.ReadU64(&contents->seq) ||
        !meta.ReadU64(&contents->config_fingerprint) ||
        !meta.ReadU64(&contents->inventory_dim) || !meta.ReadU32(&classes) ||
        meta.remaining() != 0) {
      return Status::InvalidArgument("malformed snapshot meta section");
    }
    contents->inventory_classes = static_cast<int>(classes);
  }

  {
    BinaryReader stats(payload(kSnapshotSectionStats));
    if (!stats.ReadU64(&contents->stats.requests) ||
        !stats.ReadU64(&contents->stats.samples_processed) ||
        !stats.ReadU64(&contents->stats.samples_flagged_noisy) ||
        !stats.ReadU64(&contents->stats.model_updates) ||
        !stats.ReadF64(&contents->stats.total_process_seconds) ||
        stats.remaining() != 0) {
      return Status::InvalidArgument("malformed snapshot stats section");
    }
  }

  {
    BinaryReader rng(payload(kSnapshotSectionRng));
    uint8_t has_cached = 0;
    bool ok = true;
    for (uint64_t& word : contents->framework.rng.state) {
      ok = ok && rng.ReadU64(&word);
    }
    if (!ok || !rng.ReadF64(&contents->framework.rng.cached_gaussian) ||
        !rng.ReadU8(&has_cached) || has_cached > 1 ||
        rng.remaining() != 0) {
      return Status::InvalidArgument("malformed snapshot RNG section");
    }
    contents->framework.rng.has_cached_gaussian = has_cached == 1;
  }

  {
    const std::string_view bytes = payload(kSnapshotSectionConditional);
    BinaryReader cond(bytes);
    uint32_t classes = 0;
    if (!cond.ReadU32(&classes) ||
        !HoldsExactly(bytes.substr(cond.offset()),
                      static_cast<uint64_t>(classes) * classes,
                      sizeof(double))) {
      return Status::InvalidArgument(
          "malformed snapshot conditional-probability section");
    }
    contents->framework.conditional.assign(classes,
                                           std::vector<double>(classes, 0.0));
    for (auto& row : contents->framework.conditional) {
      for (double& v : row) cond.ReadF64(&v);
    }
  }

  {
    const std::string_view bytes = payload(kSnapshotSectionSelected);
    BinaryReader sel(bytes);
    uint64_t count = 0;
    if (!sel.ReadU64(&count) ||
        sel.remaining() != count / 8 + (count % 8 != 0)) {
      return Status::InvalidArgument(
          "malformed snapshot clean-selection section");
    }
    const std::string_view bitmap = bytes.substr(sel.offset());
    contents->framework.selected_clean.resize(count);
    for (size_t i = 0; i < count; ++i) {
      contents->framework.selected_clean[i] =
          (static_cast<unsigned char>(bitmap[i / 8]) >> (i % 8)) & 1u;
    }
  }

  BinaryReader admission(payload(kSnapshotSectionAdmission));
  uint32_t reasons = 0;
  uint8_t pending = 0;
  bool ok = admission.ReadU64(&contents->stats.samples_quarantined) &&
            admission.ReadU64(&contents->stats.requests_rejected) &&
            admission.ReadU64(&contents->stats.update_retries) &&
            admission.ReadU32(&reasons) &&
            reasons == static_cast<uint32_t>(kNumRejectionReasons);
  for (size_t i = 0; ok && i < kNumRejectionReasons; ++i) {
    ok = admission.ReadU64(&contents->stats.quarantined_by_reason[i]);
  }
  if (!ok || !admission.ReadU8(&pending) || pending > 1 ||
      !admission.ReadU64(&contents->stats.requests_deadline_exceeded) ||
      admission.remaining() != 0) {
    return Status::InvalidArgument("malformed snapshot admission section");
  }
  contents->update_pending = pending == 1;
  return Status::OK();
}

const SnapshotFileEntry* SnapshotManifest::Find(
    const std::string& file) const {
  for (const SnapshotFileEntry& entry : files) {
    if (entry.file == file) return &entry;
  }
  return nullptr;
}

std::string EncodeSnapshotManifest(
    uint64_t seq, uint64_t config_fingerprint,
    const std::vector<SnapshotFileEntry>& files) {
  JsonValue manifest = JsonValue::Object();
  manifest.Set("schema", JsonValue::String(kSnapshotSchema));
  manifest.Set("seq", JsonValue::Number(static_cast<double>(seq)));
  manifest.Set("config_fingerprint",
               JsonValue::String(FingerprintHex(config_fingerprint)));
  JsonValue listed = JsonValue::Array();
  for (const SnapshotFileEntry& file : files) {
    JsonValue entry = JsonValue::Object();
    entry.Set("file", JsonValue::String(file.file));
    entry.Set("bytes", JsonValue::Number(static_cast<double>(file.bytes)));
    entry.Set("crc32", JsonValue::Number(static_cast<double>(file.crc32)));
    listed.items().push_back(std::move(entry));
  }
  manifest.Set("files", std::move(listed));
  JsonValue datasets = JsonValue::Array();
  datasets.items().push_back(JsonValue::String(kTrainDir));
  datasets.items().push_back(JsonValue::String(kCandidateDir));
  manifest.Set("datasets", std::move(datasets));
  return manifest.ToString();
}

SnapshotManifest ParseSnapshotManifest(const std::string& text,
                                       uint64_t seq) {
  SnapshotManifest manifest;
  auto problem = [&](FormatFault fault, std::string detail) {
    manifest.problems.push_back({fault, std::move(detail)});
  };
  StatusOr<JsonValue> parsed = JsonValue::Parse(text);
  if (!parsed.ok()) {
    problem(FormatFault::kMalformed, parsed.status().message());
    return manifest;
  }
  const JsonValue& root = parsed.value();
  if (!root.is_object()) {
    problem(FormatFault::kMalformed, "snapshot manifest is not a JSON object");
    return manifest;
  }
  const JsonValue* schema = root.Find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->AsString() != kSnapshotSchema) {
    problem(FormatFault::kMalformed,
            "missing or unsupported snapshot manifest schema");
  }
  uint64_t listed_seq = 0;
  if (!GetUInt(root, "seq", &listed_seq).ok() || listed_seq != seq) {
    problem(FormatFault::kMismatch,
            "snapshot manifest seq does not match its directory");
  }
  const JsonValue* fingerprint = root.Find("config_fingerprint");
  const std::string hex =
      fingerprint != nullptr && fingerprint->is_string()
          ? fingerprint->AsString()
          : std::string();
  char* end = nullptr;
  manifest.config_fingerprint = std::strtoull(hex.c_str(), &end, 16);
  if (hex.empty() || *end != '\0') {
    problem(FormatFault::kMalformed,
            "missing or malformed config fingerprint: '" + hex + "'");
  }

  const JsonValue* files = root.Find("files");
  if (files == nullptr || !files->is_array()) {
    problem(FormatFault::kMalformed, "snapshot manifest has no 'files' array");
    return manifest;
  }
  for (const JsonValue& item : files->items()) {
    const JsonValue* file = item.Find("file");
    SnapshotFileEntry entry;
    uint64_t crc = 0;
    if (file == nullptr || !file->is_string() || file->AsString().empty() ||
        file->AsString().find('/') != std::string::npos ||
        !GetUInt(item, "bytes", &entry.bytes).ok() ||
        !GetUInt(item, "crc32", &crc, std::numeric_limits<uint32_t>::max())
             .ok()) {
      problem(FormatFault::kMalformed, "malformed snapshot file entry");
      continue;
    }
    entry.file = file->AsString();
    entry.crc32 = static_cast<uint32_t>(crc);
    manifest.files.push_back(std::move(entry));
  }
  if (manifest.Find(kStateFile) == nullptr ||
      manifest.Find(kModelFile) == nullptr) {
    problem(FormatFault::kMalformed,
            "snapshot manifest must list state.bin and model.bin");
  }
  return manifest;
}

uint64_t FingerprintConfig(const DataPlatformConfig& config) {
  std::string bytes;
  PutU64(&bytes, config.update_every);
  PutU64(&bytes, config.min_update_samples);

  const EnldConfig& enld = config.enld;
  PutU32(&bytes, static_cast<uint32_t>(enld.general.backbone));
  AppendTrainConfig(&bytes, enld.general.train);
  PutU64(&bytes, enld.general.seed);

  PutU64(&bytes, enld.contrastive_k);
  PutU64(&bytes, enld.iterations);
  PutU64(&bytes, enld.steps_per_iteration);
  PutU64(&bytes, enld.warmup_epochs);
  PutF64(&bytes, enld.high_quality_strictness);
  AppendTrainConfig(&bytes, enld.finetune);
  PutU32(&bytes, static_cast<uint32_t>(enld.policy));
  PutU8(&bytes, enld.ablation.use_contrastive ? 1 : 0);
  PutU8(&bytes, enld.ablation.use_majority_voting ? 1 : 0);
  PutU8(&bytes, enld.ablation.merge_clean_into_c ? 1 : 0);
  PutU8(&bytes, enld.ablation.use_probability_label ? 1 : 0);
  PutU8(&bytes, enld.recover_missing_labels ? 1 : 0);
  PutU64(&bytes, enld.seed);
  return Fnv1a(bytes);
}

std::string SnapshotStore::DirName(uint64_t seq) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "snap-%06llu",
                static_cast<unsigned long long>(seq));
  return buffer;
}

StatusOr<uint64_t> SnapshotStore::LatestSeq() const {
  StatusOr<std::string> current = ReadFile(root_ + "/" + kCurrentFile);
  if (!current.ok()) return current.status();
  std::string name = current.value();
  while (!name.empty() && (name.back() == '\n' || name.back() == '\r')) {
    name.pop_back();
  }
  const uint64_t seq = SeqOfDirName(name);
  if (seq == 0) {
    return Status::InvalidArgument("malformed CURRENT pointer: '" + name +
                                   "'");
  }
  return seq;
}

std::vector<uint64_t> SnapshotStore::ListSeqs() const {
  std::vector<uint64_t> seqs;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(root_, ec)) {
    if (!entry.is_directory(ec)) continue;
    const uint64_t seq = SeqOfDirName(entry.path().filename().string());
    if (seq > 0) seqs.push_back(seq);
  }
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

StatusOr<uint64_t> SnapshotStore::Save(const SnapshotContents& contents) {
  ENLD_TRACE_SPAN("store/save_snapshot");
  std::error_code ec;
  std::filesystem::create_directories(root_, ec);
  if (ec) {
    return Status::Internal("cannot create snapshot root " + root_ + ": " +
                            ec.message());
  }

  const StatusOr<uint64_t> latest = LatestSeq();
  const uint64_t seq = latest.ok() ? latest.value() + 1 : 1;
  const std::string name = DirName(seq);
  const std::string final_dir = root_ + "/" + name;
  const std::string staging = final_dir + ".tmp";

  // A stale staging dir (or an unpublished final dir from a crash between
  // the directory rename and the CURRENT update) was never visible to
  // readers and is safe to discard.
  std::filesystem::remove_all(staging, ec);
  std::filesystem::remove_all(final_dir, ec);
  std::filesystem::create_directories(staging, ec);
  if (ec) {
    return Status::Internal("cannot create staging directory " + staging +
                            ": " + ec.message());
  }

  SnapshotContents stamped_meta = contents;
  stamped_meta.seq = seq;
  const std::string state = EncodeSnapshotState(stamped_meta);
  ENLD_RETURN_IF_ERROR(
      WriteFileDurable(staging + "/" + kStateFile, state));

  // The model rides in the nn/serialization format, encoded once and
  // written durably; the manifest CRC is taken over the same bytes.
  ModelFile model;
  model.dims = contents.framework.model_dims;
  model.weights = contents.framework.model_weights;
  const std::string model_bytes = EncodeModelFile(model);
  ENLD_RETURN_IF_ERROR(
      WriteFileDurable(staging + "/" + kModelFile, model_bytes));

  ENLD_CHECK(contents.framework.train_set != nullptr &&
             contents.framework.candidate_set != nullptr);
  ENLD_RETURN_IF_ERROR(SaveDatasetSharded(
      *contents.framework.train_set, staging + "/" + kTrainDir, kTrainDir));
  ENLD_RETURN_IF_ERROR(SaveDatasetSharded(*contents.framework.candidate_set,
                                          staging + "/" + kCandidateDir,
                                          kCandidateDir));

  const std::vector<SnapshotFileEntry> listed = {
      {kStateFile, state.size(), Crc32(state)},
      {kModelFile, model_bytes.size(), Crc32(model_bytes)}};
  ENLD_RETURN_IF_ERROR(WriteFileDurable(
      staging + "/" + kManifestFile,
      EncodeSnapshotManifest(seq, contents.config_fingerprint, listed)));

  // Publish: rename the complete staging dir into place, persist the
  // parent, then (and only then) move CURRENT forward. The staging dir
  // survives a failed attempt untouched, so publishing retries under the
  // same policy as the file IO.
  ENLD_RETURN_IF_ERROR(RetryWithBackoff(
      DefaultIoRetryPolicy(), "publish snapshot " + name, [&]() -> Status {
        ENLD_RETURN_IF_ERROR(faults::Check("snapshot/publish"));
        std::error_code rename_ec;
        std::filesystem::rename(staging, final_dir, rename_ec);
        if (rename_ec) {
          return Status::Internal("cannot publish snapshot " + final_dir +
                                  ": " + rename_ec.message());
        }
        return Status::OK();
      }));
  ENLD_RETURN_IF_ERROR(SyncDir(root_));
  ENLD_RETURN_IF_ERROR(
      WriteFileDurable(root_ + "/" + kCurrentFile, name + "\n"));

  static telemetry::Counter* saved =
      telemetry::MetricsRegistry::Global().GetCounter(
          "store/snapshots_written");
  saved->Increment();
  GarbageCollect();
  return seq;
}

size_t SnapshotStore::GarbageCollect() const {
  if (keep_last_ == 0) return 0;
  const std::vector<uint64_t> seqs = ListSeqs();
  if (seqs.size() <= keep_last_) return 0;

  // CURRENT's target is immortal regardless of its age. After a crash
  // between a snapshot publish and the CURRENT update, newer unpublished
  // directories outrank the published one by sequence number — retention
  // must still never delete the only snapshot a reader can reach.
  uint64_t current = 0;
  const StatusOr<uint64_t> latest = LatestSeq();
  if (latest.ok()) current = latest.value();

  static telemetry::Counter* collected =
      telemetry::MetricsRegistry::Global().GetCounter(
          "store/snapshots_collected");
  size_t removed = 0;
  for (size_t i = 0; i + keep_last_ < seqs.size(); ++i) {
    if (seqs[i] == current) continue;
    std::error_code ec;
    std::filesystem::remove_all(root_ + "/" + DirName(seqs[i]), ec);
    if (!ec) {
      ++removed;
      collected->Increment();
    }
  }
  return removed;
}

Status CheckSnapshotContents(const SnapshotContents& contents) {
  const Dataset& candidate_set = *contents.framework.candidate_set;
  if (contents.framework.selected_clean.size() != candidate_set.size()) {
    return Status::InvalidArgument(
        "clean-selection bitmap length does not match the candidate set");
  }
  if (contents.framework.conditional.size() !=
      static_cast<size_t>(candidate_set.num_classes)) {
    return Status::InvalidArgument(
        "conditional-probability size does not match num_classes");
  }
  if (!candidate_set.empty() &&
      (candidate_set.dim() != contents.inventory_dim ||
       candidate_set.num_classes != contents.inventory_classes)) {
    return Status::InvalidArgument(
        "snapshot inventory geometry disagrees with its candidate set");
  }
  return Status::OK();
}

StatusOr<SnapshotContents> SnapshotStore::Load(uint64_t seq) const {
  ENLD_TRACE_SPAN("store/load_snapshot");
  const std::string dir = root_ + "/" + DirName(seq);

  StatusOr<std::string> manifest_text = ReadFile(dir + "/" + kManifestFile);
  if (!manifest_text.ok()) return manifest_text.status();
  const SnapshotManifest manifest =
      ParseSnapshotManifest(manifest_text.value(), seq);
  if (!manifest.problems.empty()) {
    return Status::InvalidArgument(manifest.problems.front().detail);
  }

  // Every listed file is read once: its size and CRC are checked against
  // the manifest, and state.bin and model.bin decode from those bytes.
  std::string state, model_bytes;
  for (const SnapshotFileEntry& entry : manifest.files) {
    StatusOr<std::string> data = ReadFile(dir + "/" + entry.file);
    if (!data.ok()) return data.status();
    ENLD_RETURN_IF_ERROR(
        VerifyListedBytes(entry.file, *data, entry.bytes, entry.crc32));
    if (entry.file == kStateFile) state = std::move(data).value();
    if (entry.file == kModelFile) model_bytes = std::move(data).value();
  }

  SnapshotContents contents;
  ENLD_RETURN_IF_ERROR(DecodeSnapshotState(state, &contents));
  if (contents.seq != seq) {
    return Status::InvalidArgument(
        "state.bin seq does not match the snapshot directory");
  }
  if (contents.config_fingerprint != manifest.config_fingerprint) {
    return Status::InvalidArgument(
        "state.bin config fingerprint disagrees with the manifest");
  }

  StatusOr<ModelFile> model = DecodeModelFile(model_bytes);
  if (!model.ok()) return model.status();
  contents.framework.model_dims = std::move(model.value().dims);
  contents.framework.model_weights = std::move(model.value().weights);

  StatusOr<Dataset> train = LoadDatasetSharded(dir + "/" + kTrainDir);
  if (!train.ok()) return train.status();
  contents.framework.train_set =
      std::make_shared<const Dataset>(std::move(train.value()));
  StatusOr<Dataset> candidate = LoadDatasetSharded(dir + "/" + kCandidateDir);
  if (!candidate.ok()) return candidate.status();
  contents.framework.candidate_set =
      std::make_shared<const Dataset>(std::move(candidate.value()));
  ENLD_RETURN_IF_ERROR(CheckSnapshotContents(contents));

  static telemetry::Counter* loaded =
      telemetry::MetricsRegistry::Global().GetCounter(
          "store/snapshots_read");
  loaded->Increment();
  return contents;
}

StatusOr<SnapshotContents> SnapshotStore::LoadLatest() const {
  StatusOr<uint64_t> seq = LatestSeq();
  if (!seq.ok()) return seq.status();
  return Load(seq.value());
}

}  // namespace store

StatusOr<std::function<Status()>> DataPlatform::BeginSnapshot(
    const std::string& dir) const {
  if (!initialized_) {
    return Status::FailedPrecondition(
        "platform not initialized; nothing to snapshot");
  }
  if (detector_ != nullptr) {
    return Status::FailedPrecondition(
        "snapshots capture the built-in 'enld' framework state; detector '" +
        config_.detector + "' is not snapshottable");
  }
  // The capture is synchronous, so the platform may process further
  // requests while the returned closure performs the durable write on
  // another thread. The model, P̃, S_c, RNG and stats are copied before
  // this returns. I_t and I_c are shared, not copied: the framework never
  // mutates a dataset it holds — UpdateModel swaps the two pointers and
  // RestoreState replaces them — so the datasets this capture points at
  // stay exactly as captured until the write drops its reference.
  auto contents = std::make_shared<store::SnapshotContents>();
  contents->config_fingerprint = store::FingerprintConfig(config_);
  contents->framework = framework_.CaptureState();
  contents->stats = stats_;
  contents->inventory_dim = inventory_dim_;
  contents->inventory_classes = inventory_classes_;
  contents->update_pending = update_pending_;
  const size_t keep_last = config_.snapshot_keep_last;
  return std::function<Status()>([dir, keep_last, contents]() -> Status {
    store::SnapshotStore snapshots(dir, keep_last);
    StatusOr<uint64_t> seq = snapshots.Save(*contents);
    return seq.ok() ? Status::OK() : seq.status();
  });
}

Status DataPlatform::SaveSnapshot(const std::string& dir) const {
  StatusOr<std::function<Status()>> write = BeginSnapshot(dir);
  if (!write.ok()) return write.status();
  return write.value()();
}

Status DataPlatform::RestoreFromSnapshot(const std::string& dir) {
  ENLD_TRACE_SPAN("store/restore_snapshot");
  if (detector_ != nullptr) {
    return Status::FailedPrecondition(
        "snapshots restore the built-in 'enld' framework state; detector '" +
        config_.detector + "' is not snapshottable");
  }
  store::SnapshotStore snapshots(dir);
  StatusOr<store::SnapshotContents> loaded = snapshots.LoadLatest();
  if (!loaded.ok()) return loaded.status();
  store::SnapshotContents& contents = loaded.value();

  if (contents.config_fingerprint != store::FingerprintConfig(config_)) {
    return Status::FailedPrecondition(
        "snapshot was written under a different platform configuration "
        "(fingerprint mismatch); restore refused");
  }
  const uint64_t dim = contents.inventory_dim;
  const int classes = contents.inventory_classes;

  // RestoreState validates everything before mutating; only after it
  // commits are the platform-level fields replaced, so a failed restore
  // leaves this platform exactly as it was.
  ENLD_RETURN_IF_ERROR(
      framework_.RestoreState(std::move(contents.framework)));
  stats_ = contents.stats;
  inventory_dim_ = static_cast<size_t>(dim);
  inventory_classes_ = classes;
  update_pending_ = contents.update_pending;
  initialized_ = true;
  return Status::OK();
}

}  // namespace enld
