#include "rpc/stats.h"

#include <cstdio>
#include <utility>

#include "rpc/frame.h"
#include "store/json.h"

namespace enld {
namespace rpc {

namespace {

store::JsonValue U64(uint64_t v) {
  return store::JsonValue::Number(static_cast<double>(v));
}

std::string HexFingerprint(uint64_t fingerprint) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buffer;
}

store::JsonValue HistogramJson(const telemetry::HistogramSnapshot& h) {
  store::JsonValue out = store::JsonValue::Object();
  out.Set("count", U64(h.count));
  out.Set("sum", store::JsonValue::Number(h.sum));
  store::JsonValue bounds = store::JsonValue::Array();
  for (double b : h.upper_bounds) {
    bounds.items().push_back(store::JsonValue::Number(b));
  }
  out.Set("upper_bounds", std::move(bounds));
  store::JsonValue buckets = store::JsonValue::Array();
  for (uint64_t c : h.bucket_counts) {
    buckets.items().push_back(U64(c));
  }
  out.Set("bucket_counts", std::move(buckets));
  store::JsonValue quantiles = store::JsonValue::Object();
  quantiles.Set("p50",
                store::JsonValue::Number(telemetry::HistogramQuantile(h, 0.5)));
  quantiles.Set("p90",
                store::JsonValue::Number(telemetry::HistogramQuantile(h, 0.9)));
  quantiles.Set(
      "p99", store::JsonValue::Number(telemetry::HistogramQuantile(h, 0.99)));
  out.Set("quantiles", std::move(quantiles));
  return out;
}

}  // namespace

std::string RenderStatsJson(const StatsInfo& info) {
  store::JsonValue doc = store::JsonValue::Object();
  doc.Set("schema", store::JsonValue::String("enld-stats-v1"));
  doc.Set("uptime_seconds", store::JsonValue::Number(info.uptime_seconds));

  store::JsonValue build = store::JsonValue::Object();
  build.Set("frame_version", U64(kFrameVersion));
  build.Set("frame_header_bytes", U64(kFrameHeaderBytes));
  build.Set("config_fingerprint",
            store::JsonValue::String(HexFingerprint(info.config_fingerprint)));
  doc.Set("build", std::move(build));

  store::JsonValue server = store::JsonValue::Object();
  server.Set("connections_accepted", U64(info.connections_accepted));
  server.Set("connections_rejected", U64(info.connections_rejected));
  server.Set("connections_active", U64(info.connections_active));
  server.Set("requests", U64(info.requests));
  server.Set("responses", U64(info.responses));
  server.Set("wire_errors", U64(info.wire_errors));
  server.Set("dropped_frames", U64(info.dropped_frames));
  server.Set("deadline_propagated", U64(info.deadline_propagated));
  server.Set("stats_served", U64(info.stats_served));
  doc.Set("server", std::move(server));

  store::JsonValue pipeline = store::JsonValue::Object();
  pipeline.Set("submitted", U64(info.pipeline.submitted));
  pipeline.Set("completed", U64(info.pipeline.completed));
  pipeline.Set("batches", U64(info.pipeline.batches));
  pipeline.Set("largest_batch", U64(info.pipeline.largest_batch));
  pipeline.Set("queue_deadline_drops", U64(info.pipeline.queue_deadline_drops));
  pipeline.Set("hol_blocked", U64(info.pipeline.hol_blocked));
  pipeline.Set("snapshot_writes", U64(info.pipeline.snapshot_writes));
  pipeline.Set("scrub_runs", U64(info.pipeline.scrub_runs));
  pipeline.Set("scrub_findings", U64(info.pipeline.scrub_findings));
  pipeline.Set("queue_depth", U64(info.queue_depth));
  doc.Set("pipeline", std::move(pipeline));

  store::JsonValue recent = store::JsonValue::Array();
  for (const RequestRecord& record : info.recent_requests) {
    store::JsonValue entry = store::JsonValue::Object();
    entry.Set("sequence", U64(record.sequence));
    entry.Set("request_id", U64(record.request_id));
    entry.Set("status", store::JsonValue::String(StatusCodeName(record.status)));
    entry.Set("queue_seconds", store::JsonValue::Number(record.queue_seconds));
    entry.Set("admission_seconds",
              store::JsonValue::Number(record.admission_seconds));
    entry.Set("detect_seconds",
              store::JsonValue::Number(record.detect_seconds));
    entry.Set("process_seconds",
              store::JsonValue::Number(record.process_seconds));
    recent.items().push_back(std::move(entry));
  }
  doc.Set("recent_requests", std::move(recent));

  store::JsonValue metrics = store::JsonValue::Object();
  store::JsonValue counters = store::JsonValue::Object();
  for (const auto& [name, value] : info.metrics.counters) {
    counters.Set(name, U64(value));
  }
  metrics.Set("counters", std::move(counters));
  store::JsonValue histograms = store::JsonValue::Object();
  for (const auto& [name, snapshot] : info.metrics.histograms) {
    histograms.Set(name, HistogramJson(snapshot));
  }
  metrics.Set("histograms", std::move(histograms));
  doc.Set("metrics", std::move(metrics));

  return doc.ToString();
}

}  // namespace rpc
}  // namespace enld
