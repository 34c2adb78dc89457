#ifndef ENLD_STORE_REPLAY_H_
#define ENLD_STORE_REPLAY_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "enld/admission.h"
#include "enld/platform.h"
#include "store/quarantine.h"

namespace enld {
namespace store {

/// Quarantine replay (`enld_cli replay`, docs/ROBUSTNESS.md §"Self-healing
/// runbook"): after an operator fixes the root cause of a batch of
/// rejections — a corrupted source regenerated, a num_classes config
/// mistake corrected — the quarantined rows are re-screened through the
/// SAME ScreenDataset admission path every live request goes through, and
/// the survivors re-admitted via DataPlatform::Process. Nothing in the
/// quarantine log is trusted: the recorded reason is reported for context
/// only, and every row is judged afresh against the supplied source data.

/// What happened to one quarantined sample on replay. Outcomes follow the
/// quarantine log's record order, deduplicated by sample id.
struct ReplayOutcome {
  uint64_t sample_id = 0;
  /// Row within `source` the sample was matched to (by id).
  uint64_t source_row = 0;
  /// The reason the quarantine log recorded (context only).
  std::string prior_reason;
  /// "readmitted", "still_rejected" or "missing" (id not in `source`).
  std::string verdict;
  /// Fresh rejection reason when still rejected; empty otherwise.
  std::string reason;
};

struct ReplayReport {
  uint64_t request_id = 0;
  /// True when the quarantine log was capacity-truncated: records were
  /// dropped at write time, so this replay cannot cover them.
  bool quarantine_truncated = false;
  uint64_t records = 0;    ///< records in the log (after id-dedup)
  uint64_t replayed = 0;   ///< matched to a source row and re-screened
  uint64_t missing = 0;    ///< sample id absent from the source data
  uint64_t readmitted = 0;
  uint64_t still_rejected = 0;
  /// Still-rejected counts indexed by RejectionReason.
  std::array<uint64_t, kNumRejectionReasons> still_rejected_by_reason = {};
  std::vector<ReplayOutcome> outcomes;
  /// Set when readmitted rows were handed to DataPlatform::Process.
  bool processed = false;
  std::string process_status;  ///< "ok" or the Process error message
  uint64_t process_flagged_noisy = 0;

  bool all_readmitted() const {
    return records > 0 && readmitted == records;
  }
};

/// Re-screens the quarantined samples in `log` against `source` (the
/// corrected data, matched by stable sample id; first occurrence wins when
/// a source repeats an id). Rows that now pass admission form one replay
/// dataset, ordered by ascending source row so the result is deterministic
/// at any thread count. When `platform` is non-null and at least one row
/// was readmitted, the replay dataset is submitted through
/// DataPlatform::Process with `request_id` stamped into the audit trail.
StatusOr<ReplayReport> ReplayQuarantine(const QuarantineFile& log,
                                        const Dataset& source,
                                        DataPlatform* platform,
                                        uint64_t request_id);

/// Writes the report as durable JSON, schema "enld-replay-v1" (validated
/// offline by tools/check_report.py replay).
Status WriteReplayReportJson(const ReplayReport& report,
                             const std::string& path);

}  // namespace store
}  // namespace enld

#endif  // ENLD_STORE_REPLAY_H_
