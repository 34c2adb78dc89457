#ifndef ENLD_STORE_QUARANTINE_H_
#define ENLD_STORE_QUARANTINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "enld/admission.h"

namespace enld {
namespace store {

/// Writes a quarantine log as a durable JSON file (schema
/// "enld-quarantine-v1") for offline inspection, the
/// tools/check_report.py quarantine audit, and `enld_cli replay`:
///
///   {"schema": "enld-quarantine-v1",
///    "total": <all-time quarantined count>,
///    "recorded": <records retained below the capacity cap>,
///    "capacity": <cap>,
///    "truncated": <true when the cap dropped records — a replay of this
///                  file cannot re-screen what was never written down>,
///    "records": [{"request": .., "row": .., "sample_id": ..,
///                 "reason": "non_finite_feature", "column": ..,
///                 "value": .., "detail": "..."}, ...]}
///
/// Lives in the store layer (not enld_core) so the platform keeps zero
/// dependencies on file IO. Uses WriteFileDurable, so the file is
/// crash-safe and the write retries transient faults like any store write.
Status WriteQuarantineJson(const QuarantineLog& log, const std::string& path);

/// One record parsed back out of a quarantine JSON file. The reason stays
/// a string so files from builds with newer RejectionReason values still
/// read (replay re-screens rows; it never trusts the recorded reason).
struct QuarantineFileRecord {
  uint64_t request = 0;
  uint64_t request_id = 0;
  uint64_t row = 0;
  uint64_t sample_id = 0;
  std::string reason;
  uint64_t column = 0;
  std::string value;
  std::string detail;
};

/// A parsed quarantine JSON file.
struct QuarantineFile {
  uint64_t total = 0;
  uint64_t capacity = 0;
  /// True when the writer's capacity cap dropped records. Absent in files
  /// from older builds; then derived as total > records.size().
  bool truncated = false;
  std::vector<QuarantineFileRecord> records;
};

/// Parses a file written by WriteQuarantineJson. NotFound when the file
/// is absent, InvalidArgument on a schema mismatch or malformed record.
StatusOr<QuarantineFile> ReadQuarantineJson(const std::string& path);

}  // namespace store
}  // namespace enld

#endif  // ENLD_STORE_QUARANTINE_H_
