#include "enld/platform.h"

#include <chrono>
#include <thread>
#include <utility>

#include "common/faults.h"
#include "common/stopwatch.h"
#include "common/telemetry/metrics.h"
#include "common/telemetry/trace.h"

namespace enld {

namespace {

/// How long one fire of a latency fault site ("platform/slow_admission",
/// "platform/slow_detect") stalls Process. Latency sites model a slow
/// request rather than a failing one: ShouldFail decides deterministically
/// whether this request is slow, and a fire sleeps instead of erroring, so
/// chaos drills can overrun a deadline on demand. The real sleep stays
/// short; when a deadline budget is configured the fire additionally
/// charges the full budget to the request's deadline clock (the returned
/// penalty), so the overrun is guaranteed on any machine — however generous
/// the budget relative to real work, and however slow the machine (TSan
/// runs included) relative to the budget.
constexpr double kInjectedStallSeconds = 0.1;

double MaybeInjectStall(const char* site, double deadline_seconds) {
  if (faults::Enabled() && faults::ShouldFail(site)) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(kInjectedStallSeconds));
    return deadline_seconds > 0.0 ? deadline_seconds : 0.0;
  }
  return 0.0;
}

/// Rewrites a DetectionResult computed on the admitted subset so its
/// indices refer to rows of the original request dataset. `admitted[i]` is
/// the original position of subset row i; `original_rows` restores the
/// recovered-labels vector to full length (kMissingLabel for quarantined
/// rows — their labels are never recovered).
DetectionResult RemapResult(DetectionResult result,
                            const std::vector<size_t>& admitted,
                            size_t original_rows) {
  for (size_t& idx : result.noisy_indices) idx = admitted[idx];
  for (size_t& idx : result.clean_indices) idx = admitted[idx];
  for (auto& iteration : result.per_iteration_clean) {
    for (size_t& idx : iteration) idx = admitted[idx];
  }
  if (!result.recovered_labels.empty()) {
    std::vector<int> expanded(original_rows, kMissingLabel);
    for (size_t i = 0; i < admitted.size(); ++i) {
      expanded[admitted[i]] = result.recovered_labels[i];
    }
    result.recovered_labels = std::move(expanded);
  }
  return result;
}

}  // namespace

DataPlatform::DataPlatform(const DataPlatformConfig& config)
    : config_(config),
      framework_(config.enld),
      quarantine_(config.admission.quarantine_capacity) {}

StatusOr<std::vector<size_t>> DataPlatform::AdmitSamples(
    const Dataset& dataset, uint64_t request, uint64_t request_id) {
  AdmissionResult screen = ScreenDataset(dataset, request);
  for (QuarantineRecord& record : screen.rejected) {
    record.request_id = request_id;
  }
  if (screen.all_admitted()) return std::move(screen.admitted);

  if (config_.admission.strict) {
    ++stats_.requests_rejected;
    return Status::InvalidArgument(
        "strict admission rejected the request: " +
        screen.rejected.front().detail + " (" +
        std::to_string(screen.rejected.size()) + " invalid sample(s) of " +
        std::to_string(dataset.size()) + ")");
  }

  static telemetry::Counter* quarantined =
      telemetry::MetricsRegistry::Global().GetCounter(
          "platform/samples_quarantined");
  for (QuarantineRecord& record : screen.rejected) {
    ++stats_.samples_quarantined;
    ++stats_.quarantined_by_reason[static_cast<size_t>(record.reason)];
    quarantined->Increment();
    quarantine_.Add(std::move(record));
  }

  if (screen.admitted.empty()) {
    ++stats_.requests_rejected;
    return Status::InvalidArgument(
        "all " + std::to_string(dataset.size()) +
        " sample(s) were quarantined; nothing to process");
  }
  return std::move(screen.admitted);
}

Status DataPlatform::Initialize(const Dataset& inventory) {
  if (initialized_) {
    return Status::FailedPrecondition("platform already initialized");
  }
  if (inventory.size() < 2) {
    return Status::InvalidArgument("inventory needs at least 2 samples");
  }
  if (inventory.num_classes <= 1) {
    return Status::InvalidArgument("inventory needs at least 2 classes");
  }

  StatusOr<std::vector<size_t>> admitted = AdmitSamples(inventory, 0, 0);
  if (!admitted.ok()) return admitted.status();
  if (admitted->size() < 2) {
    ++stats_.requests_rejected;
    return Status::InvalidArgument(
        "fewer than 2 inventory samples survived admission");
  }

  if (admitted->size() == inventory.size()) {
    framework_.Setup(inventory);
  } else {
    framework_.Setup(inventory.Subset(*admitted));
  }
  inventory_dim_ = inventory.dim();
  inventory_classes_ = inventory.num_classes;
  initialized_ = true;
  return Status::OK();
}

Status DataPlatform::RecordDeadlineExceeded(double elapsed_seconds,
                                            const std::string& stage,
                                            double budget_seconds,
                                            uint64_t request_id) {
  static telemetry::Counter* exceeded =
      telemetry::MetricsRegistry::Global().GetCounter(
          "platform/deadline_exceeded");
  exceeded->Increment();
  ++stats_.requests_deadline_exceeded;
  if (deadline_audit_.size() < config_.admission.quarantine_capacity) {
    DeadlineRecord record;
    record.request = stats_.requests + 1;
    record.request_id = request_id;
    record.elapsed_seconds = elapsed_seconds;
    record.budget_seconds = budget_seconds;
    record.stage = stage;
    deadline_audit_.push_back(std::move(record));
  }
  return Status::DeadlineExceeded(
      "request exceeded its deadline budget of " +
      std::to_string(budget_seconds) + "s during " + stage + " (" +
      std::to_string(elapsed_seconds) + "s elapsed)");
}

StatusOr<DetectionResult> DataPlatform::Process(
    const Dataset& incremental, double deadline_override_seconds,
    uint64_t request_id) {
  // The budget that applies to this request: the per-request override when
  // one was propagated (wire deadline header), else the config's.
  const double deadline = deadline_override_seconds >= 0.0
                              ? deadline_override_seconds
                              : config_.request_deadline_seconds;
  if (!initialized_) {
    return Status::FailedPrecondition("platform not initialized");
  }
  // Timing starts at request entry: admission screening and the subset
  // copy are part of serving the request and count toward the deadline
  // budget. Injected stall penalties (modeled time that did not really
  // pass) count too, so a faulted request is timed as if it had genuinely
  // been that slow.
  last_timings_ = RequestTimings{};
  const Stopwatch timer;
  double penalty = 0.0;
  const auto elapsed = [&] { return timer.ElapsedSeconds() + penalty; };
  // The span tree aggregates by name, so the id itself lives in the
  // serving ring buffer and audit records; the span counts how many
  // requests carried one (docs/OBSERVABILITY.md).
  ENLD_TRACE_SPAN("platform/process");
  telemetry::CurrentSpanStat("requests", 1.0);
  if (request_id != 0) telemetry::CurrentSpanStat("tagged_requests", 1.0);
  ENLD_RETURN_IF_ERROR(faults::Check("platform/process"));
  if (incremental.empty()) {
    return Status::InvalidArgument("incremental dataset is empty");
  }
  if (incremental.dim() != inventory_dim_) {
    return Status::InvalidArgument(
        "incremental feature dimension does not match the inventory");
  }
  if (incremental.num_classes != inventory_classes_) {
    return Status::InvalidArgument(
        "incremental class count does not match the inventory");
  }

  penalty += MaybeInjectStall("platform/slow_admission", deadline);
  StatusOr<std::vector<size_t>> admitted =
      AdmitSamples(incremental, stats_.requests + 1, request_id);
  last_timings_.admission_seconds = elapsed();
  if (!admitted.ok()) return admitted.status();
  const bool screened = admitted->size() != incremental.size();

  // Deadline check #1, before detection: a request already over budget is
  // dropped without touching the framework (its RNG stream included), so
  // the remaining stream is byte-identical to one that never saw it.
  if (deadline > 0.0 && elapsed() > deadline) {
    return RecordDeadlineExceeded(elapsed(), "admission", deadline,
                                  request_id);
  }

  penalty += MaybeInjectStall("platform/slow_detect", deadline);
  DetectionResult result =
      screened
          ? RemapResult(framework_.Detect(incremental.Subset(*admitted)),
                        *admitted, incremental.size())
          : framework_.Detect(incremental);
  last_timings_.detect_seconds = elapsed() - last_timings_.admission_seconds;

  // Deadline check #2, after detection: the work happened but the caller's
  // budget is blown — degrade by discarding the result so the queue behind
  // this request keeps draining.
  if (deadline > 0.0 && elapsed() > deadline) {
    return RecordDeadlineExceeded(elapsed(), "detection", deadline,
                                  request_id);
  }

  ++stats_.requests;
  stats_.samples_processed += admitted->size();
  stats_.samples_flagged_noisy += result.noisy_indices.size();

  RunUpdatePolicy();
  return result;
}

void DataPlatform::RunUpdatePolicy() {
  const bool due = config_.update_every > 0 &&
                   stats_.requests % config_.update_every == 0;
  if (!due && !update_pending_) return;

  // Skip-and-retry: an update that comes due while S_c is still too small
  // (or whose attempt fails) stays pending and is retried after the next
  // request instead of being dropped until the next update_every boundary.
  if (framework_.selected_clean_count() >= config_.min_update_samples) {
    if (framework_.UpdateModel().ok()) {
      ++stats_.model_updates;
      update_pending_ = false;
      return;
    }
  }
  ++stats_.update_retries;
  update_pending_ = true;
}

Status DataPlatform::Update() {
  if (!initialized_) {
    return Status::FailedPrecondition("platform not initialized");
  }
  if (framework_.selected_clean_count() < config_.min_update_samples) {
    return Status::FailedPrecondition(
        "selected clean set below min_update_samples");
  }
  ENLD_RETURN_IF_ERROR(framework_.UpdateModel());
  ++stats_.model_updates;
  update_pending_ = false;
  return Status::OK();
}

}  // namespace enld
