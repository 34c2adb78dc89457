// The paper's deployment story (Fig. 1): a data platform holding a large
// noisy inventory receives a continuous stream of incremental datasets.
// The DataPlatform façade validates each request, runs ENLD's fine-grained
// detection, accumulates clean inventory selections, and refreshes the
// general model automatically once enough clean samples are banked
// (Algorithm 4). The refreshed model is finally saved to disk.
//
//   ./build/examples/data_platform_stream [noise_rate]
//
// Durable-store flags (see docs/PERSISTENCE.md):
//   --snapshot_dir=<dir>  snapshot the platform after every request and,
//                         when the directory already holds a snapshot,
//                         resume the stream from it instead of re-running
//                         setup
//   --kill_after=<n>      simulate a crash: exit with code 3 after serving
//                         n requests in this run (snapshots written so
//                         far stay behind for the next run to resume from;
//                         sequential mode only)
//   --datasets=<n>        stream length (default 12)
//   --snapshot_keep=<n>   retain only the newest n snapshots (0 = all)
//
// Async pipeline flags (see docs/ARCHITECTURE.md):
//   --async               serve the stream through the batched request
//                         pipeline: requests are submitted up front and a
//                         dispatcher thread drains them in batches,
//                         overlapping snapshot writes with detection.
//                         Output is byte-identical to the sequential loop
//                         at any thread count.
//   --batch_size=<n>      dispatcher batch size in async mode (default 4)
//   --request_deadline=<s>  per-request budget in seconds; an over-budget
//                         request fails with DeadlineExceeded while the
//                         stream behind it keeps flowing (0 = no deadline)
//   --queue_wait_budget=<s>  separate budget for time spent waiting in the
//                         pipeline queue (docs/SERVING.md §5); requests
//                         waiting longer count as head-of-line blocked and
//                         a summary is printed to stderr (0 = fall back to
//                         the request deadline)
//
// A killed run resumed with the same flags produces byte-identical
// detections for the remaining requests — the snapshot carries the full
// model, P-tilde, clean-bank and RNG stream state.
//
// Pass --telemetry_out=report.json (or set ENLD_TELEMETRY) to dump the
// whole serving window — setup, every request's detect spans, automatic
// model updates — as one machine-readable telemetry report.
//
// Robustness hooks (see docs/ROBUSTNESS.md):
//   --quarantine_out=<path.json>  dump the platform's quarantine log (bad
//                                 samples rejected at admission) as JSON
//   --scrub_every=<n>             async mode: run a background integrity
//                                 scrub of --snapshot_dir every n
//                                 completed requests (off the request
//                                 path; findings summarized on stderr)
//   ENLD_FAULTS=<spec>            arm deterministic fault injection; a
//                                 per-site fire summary is printed to
//                                 stderr after the stream so chaos drills
//                                 can assert faults actually fired

#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "common/faults.h"
#include "common/stopwatch.h"
#include "common/telemetry/report.h"
#include "data/workload.h"
#include "enld/pipeline.h"
#include "enld/platform.h"
#include "eval/metrics.h"
#include "eval/paper_setup.h"
#include "eval/reporting.h"
#include "flags.h"
#include "nn/serialization.h"
#include "nn/trainer.h"
#include "store/quarantine.h"
#include "store/scrub.h"
#include "store/snapshot.h"

int main(int argc, char** argv) {
  using namespace enld;
  const double noise_rate = flags::LeadingRate(argc, argv, "noise_rate", 0.2);
  const std::string snapshot_dir = flags::Value(argc, argv, "snapshot_dir");
  const size_t kill_after = flags::Integer(argc, argv, "kill_after", 0, 0);
  const size_t num_datasets = flags::Integer(argc, argv, "datasets", 12);
  const std::string quarantine_out =
      flags::Value(argc, argv, "quarantine_out");
  const bool use_async = flags::Has(argc, argv, "async");
  const size_t batch_size = flags::Integer(argc, argv, "batch_size", 4);
  const double request_deadline =
      flags::Seconds(argc, argv, "request_deadline", 0.0);
  const double queue_wait_budget =
      flags::Seconds(argc, argv, "queue_wait_budget", 0.0);
  const size_t snapshot_keep =
      flags::Integer(argc, argv, "snapshot_keep", 0, 0);
  const size_t scrub_every = flags::Integer(argc, argv, "scrub_every", 0, 0);
  if (use_async && kill_after > 0) {
    std::fprintf(stderr,
                 "--kill_after is sequential-only (the async pipeline has "
                 "no per-request exit point); drop --async to use it\n");
    return 2;
  }

  // Unlike the eval harness, the platform serves requests directly, so the
  // example owns the telemetry scope: reset here, capture after the stream.
  telemetry::ResetTelemetry();

  WorkloadConfig workload_config = Cifar100WorkloadConfig(noise_rate);
  workload_config.stream.num_datasets = num_datasets == 0 ? 12 : num_datasets;
  const Workload workload = BuildWorkload(workload_config);
  std::printf("data lake: %zu inventory samples, %d classes, noise %.2f\n",
              workload.inventory.size(), workload.inventory.num_classes,
              noise_rate);

  // Platform policy: try a model refresh every 9 requests, but only once
  // at least 1500 clean inventory samples have been banked.
  DataPlatformConfig config;
  config.enld = PaperEnldConfig(PaperDataset::kCifar100);
  config.update_every = 9;
  config.min_update_samples = 1500;
  config.request_deadline_seconds = request_deadline;
  config.snapshot_keep_last = snapshot_keep;
  DataPlatform platform(config);

  // With a snapshot directory, an existing snapshot wins over a fresh
  // setup: the stream continues exactly where the previous run stopped.
  size_t start_request = 0;
  bool resumed = false;
  if (!snapshot_dir.empty()) {
    const Status restored = platform.RestoreFromSnapshot(snapshot_dir);
    if (restored.ok()) {
      resumed = true;
      start_request = static_cast<size_t>(platform.stats().requests);
      std::printf("resumed from snapshot in %s at request %zu\n",
                  snapshot_dir.c_str(), start_request);
    } else if (restored.code() != StatusCode::kNotFound) {
      std::fprintf(stderr, "snapshot restore failed: %s\n",
                   restored.ToString().c_str());
      return 1;
    }
  }

  if (!resumed) {
    Stopwatch setup;
    const Status init = platform.Initialize(workload.inventory);
    if (!init.ok()) {
      std::fprintf(stderr, "initialization failed: %s\n",
                   init.ToString().c_str());
      return 1;
    }
    std::printf(
        "setup done in %.2fs (general model + P-tilde estimation)\n\n",
        setup.ElapsedSeconds());
  }

  double f1_sum = 0.0;
  size_t served_this_run = 0;
  const Stopwatch run;
  if (use_async) {
    // Batched async path: every remaining dataset is submitted up front
    // (Submit applies backpressure when the queue fills) and responses are
    // rendered in submission order from the per-response state snapshots —
    // never from the live platform, which the dispatcher keeps mutating.
    PipelineConfig pipeline_config;
    pipeline_config.batch_size = batch_size;
    pipeline_config.queue_wait_budget_seconds = queue_wait_budget;
    if (!snapshot_dir.empty()) {
      pipeline_config.snapshot_capture = [&platform, snapshot_dir] {
        return platform.BeginSnapshot(snapshot_dir);
      };
      // Background integrity scrub every N completed requests — runs on
      // the shared pool between snapshot writes, never on the request
      // path. Findings surface in the scrub counters printed below.
      if (scrub_every > 0) {
        pipeline_config.scrub_every = scrub_every;
        pipeline_config.scrub_hook =
            [snapshot_dir]() -> StatusOr<uint64_t> {
          StatusOr<store::ScrubReport> report =
              store::ScrubSnapshotStore(snapshot_dir);
          if (!report.ok()) return report.status();
          return static_cast<uint64_t>(report.value().findings.size());
        };
      }
    }
    RequestPipeline pipeline(&platform, pipeline_config);
    std::vector<std::future<PipelineResponse>> futures;
    futures.reserve(workload.incremental.size() - start_request);
    for (size_t i = start_request; i < workload.incremental.size(); ++i) {
      futures.push_back(pipeline.Submit(workload.incremental[i]));
    }
    uint64_t updates_before = platform.stats().model_updates;
    for (size_t f = 0; f < futures.size(); ++f) {
      const size_t i = start_request + f;
      const Dataset& arriving = workload.incremental[i];
      PipelineResponse response = futures[f].get();
      if (!response.result.ok()) {
        std::fprintf(stderr, "request failed: %s\n",
                     response.result.status().ToString().c_str());
        continue;
      }
      const DetectionMetrics m =
          EvaluateDetection(arriving, response.result->noisy_indices);
      f1_sum += m.f1;
      ++served_this_run;
      std::printf(
          "request %2zu: %3zu samples / %zu classes -> %2zu flagged noisy "
          "(F1 %.3f); clean bank %zu\n",
          i + 1, arriving.size(), arriving.ObservedLabelSet().size(),
          response.result->noisy_indices.size(), m.f1,
          response.clean_bank_after);
      if (response.stats_after.model_updates > updates_before) {
        std::printf("  -> automatic model update performed\n");
      }
      updates_before = response.stats_after.model_updates;
    }
    const Status drained = pipeline.Shutdown();
    if (!drained.ok()) {
      std::fprintf(stderr, "snapshot failed: %s\n",
                   drained.ToString().c_str());
      return 1;
    }
    // Head-of-line pressure summary on stderr (stdout stays byte-diffable
    // against the sequential loop): how many served requests burned their
    // whole queue-wait budget behind earlier work.
    const RequestPipeline::Counters pc = pipeline.counters();
    if (pc.hol_blocked > 0) {
      std::fprintf(stderr,
                   "queue pressure: %llu of %llu request(s) head-of-line "
                   "blocked past the %.3fs queue-wait budget (%llu shed)\n",
                   static_cast<unsigned long long>(pc.hol_blocked),
                   static_cast<unsigned long long>(pc.completed),
                   queue_wait_budget > 0.0 ? queue_wait_budget
                                           : request_deadline,
                   static_cast<unsigned long long>(pc.queue_deadline_drops));
    }
    if (pc.scrub_runs > 0) {
      std::fprintf(stderr,
                   "background scrub: %llu run(s), %llu finding(s)\n",
                   static_cast<unsigned long long>(pc.scrub_runs),
                   static_cast<unsigned long long>(pc.scrub_findings));
    }
  } else {
    for (size_t i = start_request; i < workload.incremental.size(); ++i) {
      const Dataset& arriving = workload.incremental[i];
      const uint64_t updates_before = platform.stats().model_updates;
      const StatusOr<DetectionResult> result = platform.Process(arriving);
      if (!result.ok()) {
        std::fprintf(stderr, "request failed: %s\n",
                     result.status().ToString().c_str());
        continue;
      }
      const DetectionMetrics m =
          EvaluateDetection(arriving, result->noisy_indices);
      f1_sum += m.f1;
      ++served_this_run;
      std::printf(
          "request %2zu: %3zu samples / %zu classes -> %2zu flagged noisy "
          "(F1 %.3f); clean bank %zu\n",
          i + 1, arriving.size(), arriving.ObservedLabelSet().size(),
          result->noisy_indices.size(), m.f1,
          platform.framework().selected_clean_count());
      if (platform.stats().model_updates > updates_before) {
        std::printf("  -> automatic model update performed\n");
      }
      if (!snapshot_dir.empty()) {
        const Status saved = platform.SaveSnapshot(snapshot_dir);
        if (!saved.ok()) {
          std::fprintf(stderr, "snapshot failed: %s\n",
                       saved.ToString().c_str());
          return 1;
        }
      }
      if (kill_after > 0 && served_this_run == kill_after &&
          i + 1 < workload.incremental.size()) {
        std::printf(
            "\nsimulated crash after %zu request(s); snapshot left in %s — "
            "rerun to resume\n",
            served_this_run, snapshot_dir.c_str());
        return 3;
      }
    }
  }

  const PlatformStats& stats = platform.stats();
  std::printf(
      "\nserved %lu requests (%lu samples, %lu flagged), %zu of them in "
      "%.2fs this run; %lu model updates\n",
      static_cast<unsigned long>(stats.requests),
      static_cast<unsigned long>(stats.samples_processed),
      static_cast<unsigned long>(stats.samples_flagged_noisy),
      served_this_run, run.ElapsedSeconds(),
      static_cast<unsigned long>(stats.model_updates));
  if (stats.samples_quarantined > 0 || stats.requests_rejected > 0) {
    std::printf("admission: %lu sample(s) quarantined, %lu request(s) "
                "rejected\n",
                static_cast<unsigned long>(stats.samples_quarantined),
                static_cast<unsigned long>(stats.requests_rejected));
  }
  if (stats.requests_deadline_exceeded > 0) {
    std::printf("deadlines: %lu request(s) exceeded their %.3fs budget\n",
                static_cast<unsigned long>(stats.requests_deadline_exceeded),
                config.request_deadline_seconds);
  }
  if (!quarantine_out.empty()) {
    const Status written =
        store::WriteQuarantineJson(platform.quarantine(), quarantine_out);
    std::printf("quarantine log -> %s: %s\n", quarantine_out.c_str(),
                written.ToString().c_str());
    if (!written.ok()) return 1;
  }
  // Chaos drills diff "^request" lines on stdout; the fire summary goes
  // to stderr so faulted and fault-free runs stay comparable.
  if (faults::Enabled()) {
    std::fprintf(stderr, "fault injection: %llu total fire(s)\n",
                 static_cast<unsigned long long>(faults::TotalFires()));
    for (const faults::FaultSiteStats& site : faults::Stats()) {
      std::fprintf(stderr, "  %s: %llu fired / %llu checked\n",
                   site.site.c_str(),
                   static_cast<unsigned long long>(site.fires),
                   static_cast<unsigned long long>(site.checks));
    }
  }
  if (served_this_run > 0) {
    std::printf("average detection F1 over this run: %.4f\n",
                f1_sum / served_this_run);
  }

  double accuracy = 0.0;
  for (const Dataset& d : workload.incremental) {
    accuracy +=
        AccuracyAgainstTrue(platform.framework().general_model(), d);
  }
  std::printf("final general-model accuracy on arriving data: %.4f\n",
              accuracy / workload.incremental.size());

  // Persist the refreshed model for downstream consumers.
  const std::string model_path = "/tmp/enld_general_model.bin";
  const Status saved =
      SaveModel(*platform.framework().general_model(), model_path);
  std::printf("saved general model to %s: %s\n", model_path.c_str(),
              saved.ToString().c_str());

  telemetry::RunReport report = telemetry::CaptureRunReport();
  report.method = "ENLD-platform";
  report.noise_rate = noise_rate;
  if (served_this_run > 0) {
    report.quality["f1_avg"] = f1_sum / served_this_run;
  }
  report.quality["requests"] = static_cast<double>(stats.requests);
  report.quality["model_updates"] =
      static_cast<double>(stats.model_updates);
  std::printf("\n%s", TelemetrySummary(report).c_str());
  const std::string telemetry_path =
      telemetry::TelemetryOutPath(argc, argv);
  if (!telemetry_path.empty()) {
    const Status written =
        telemetry::WriteRunReport(report, telemetry_path);
    std::printf("telemetry report -> %s: %s\n", telemetry_path.c_str(),
                written.ToString().c_str());
    if (!written.ok()) return 1;
  }
  return 0;
}
