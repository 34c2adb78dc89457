// Serving-tier latency benchmark (docs/SERVING.md): starts the framed
// socket server in-process on an ephemeral loopback port, then drives it
// with OPEN-LOOP load — request arrivals follow a fixed schedule that does
// not slow down when the server does, and each request's latency is
// measured from its *scheduled* arrival to its completion. A server that
// falls behind therefore pays for the queueing it causes (no coordinated
// omission), which is what makes the p99 honest under overload.
//
// Reported: achieved throughput plus p50 / p99 / max end-to-end latency
// per (connections, offered qps) cell, and the serving span tree /
// rpc/* counters via --telemetry_out=report.json (or ENLD_TELEMETRY).
//
// Environment overrides for quick CI runs; a value that is not a positive
// integer (or, for the lists, comma-separated positive integers) exits 2
// before the server starts:
//   ENLD_BENCH_DATASETS        stream length to cycle over (default 12)
//   ENLD_BENCH_SERVING_REQS    requests per cell (default 48)
//   ENLD_BENCH_SERVING_QPS     comma-separated offered rates (default
//                              "40,160")
//   ENLD_BENCH_SERVING_CONNS   comma-separated connection counts
//                              (default "1,4")

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/table.h"
#include "common/telemetry/report.h"
#include "data/workload.h"
#include "enld/platform.h"
#include "eval/reporting.h"
#include "rpc/client.h"
#include "rpc/server.h"

namespace {

using namespace enld;
using Clock = std::chrono::steady_clock;

double PercentileMs(std::vector<double> sorted_ms, double q) {
  if (sorted_ms.empty()) return 0.0;
  const size_t idx = std::min(
      sorted_ms.size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted_ms.size() - 1) +
                          0.5));
  return sorted_ms[idx];
}

struct CellResult {
  size_t connections = 0;
  size_t offered_qps = 0;
  size_t completed = 0;
  double achieved_qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

/// One open-loop cell: `connections` workers pull request slots off a
/// shared schedule (slot i arrives at start + i/qps), wait for the slot's
/// arrival time, and run a closed detect call on their own connection.
CellResult RunCell(int port, const Workload& workload, size_t connections,
                   size_t offered_qps, size_t total_requests) {
  std::vector<double> latencies_ms(total_requests, 0.0);
  std::atomic<size_t> next_slot{0};
  std::atomic<size_t> failures{0};
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const std::chrono::duration<double> gap(1.0 /
                                          static_cast<double>(offered_qps));

  std::vector<std::thread> workers;
  workers.reserve(connections);
  for (size_t w = 0; w < connections; ++w) {
    workers.emplace_back([&, w] {
      rpc::ClientConfig config;
      config.port = port;
      rpc::RpcClient client(config);
      while (true) {
        const size_t slot = next_slot.fetch_add(1);
        if (slot >= total_requests) break;
        const auto scheduled = start + std::chrono::duration_cast<
                                           Clock::duration>(gap * slot);
        std::this_thread::sleep_until(scheduled);
        StatusOr<rpc::WireDetectResponse> response = client.Detect(
            workload.incremental[slot % workload.incremental.size()]);
        const auto done = Clock::now();
        if (!response.ok() || !response->service_status.ok()) {
          failures.fetch_add(1);
          continue;
        }
        latencies_ms[slot] =
            std::chrono::duration<double, std::milli>(done - scheduled)
                .count();
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  const double wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  CellResult cell;
  cell.connections = connections;
  cell.offered_qps = offered_qps;
  std::vector<double> completed_ms;
  completed_ms.reserve(total_requests);
  for (double ms : latencies_ms) {
    if (ms > 0.0) completed_ms.push_back(ms);
  }
  std::sort(completed_ms.begin(), completed_ms.end());
  cell.completed = completed_ms.size();
  cell.achieved_qps = wall_seconds > 0.0
                          ? static_cast<double>(cell.completed) / wall_seconds
                          : 0.0;
  cell.p50_ms = PercentileMs(completed_ms, 0.50);
  cell.p99_ms = PercentileMs(completed_ms, 0.99);
  cell.max_ms = completed_ms.empty() ? 0.0 : completed_ms.back();
  if (failures.load() > 0) {
    std::fprintf(stderr, "cell %zux%zuqps: %zu request(s) failed\n",
                 connections, offered_qps, failures.load());
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  telemetry::ResetTelemetry();

  const size_t num_datasets = bench::DatasetBudget(12);
  const size_t total_requests =
      bench::PositiveCounts("ENLD_BENCH_SERVING_REQS", {48}, false)[0];
  const std::vector<size_t> rates =
      bench::PositiveCounts("ENLD_BENCH_SERVING_QPS", {40, 160});
  const std::vector<size_t> conns =
      bench::PositiveCounts("ENLD_BENCH_SERVING_CONNS", {1, 4});

  WorkloadConfig workload_config = Cifar100WorkloadConfig(0.2);
  workload_config.stream.num_datasets = num_datasets;
  const Workload workload = BuildWorkload(workload_config);

  DataPlatformConfig config;
  config.enld = PaperEnldConfig(PaperDataset::kCifar100);
  DataPlatform platform(config);
  ENLD_CHECK_OK(platform.Initialize(workload.inventory));

  rpc::ServerConfig server_config;
  rpc::RpcServer server(&platform, server_config);
  ENLD_CHECK_OK(server.Start());
  std::printf("serving bench on 127.0.0.1:%d — %zu requests per cell, "
              "open-loop\n\n",
              server.port(), total_requests);

  std::vector<CellResult> cells;
  for (size_t connections : conns) {
    for (size_t qps : rates) {
      cells.push_back(
          RunCell(server.port(), workload, connections, qps,
                  total_requests));
    }
  }
  ENLD_CHECK_OK(server.Shutdown());

  TablePrinter table({"conns", "offered qps", "achieved qps", "p50 ms",
                      "p99 ms", "max ms"});
  for (const CellResult& cell : cells) {
    table.AddRow({std::to_string(cell.connections),
                  std::to_string(cell.offered_qps),
                  TablePrinter::Num(cell.achieved_qps, 1),
                  TablePrinter::Num(cell.p50_ms, 2),
                  TablePrinter::Num(cell.p99_ms, 2),
                  TablePrinter::Num(cell.max_ms, 2)});
  }
  table.Print("wire serving latency under open-loop load");

  telemetry::RunReport report = telemetry::CaptureRunReport();
  report.method = "bench-serving";
  for (const CellResult& cell : cells) {
    const std::string key = std::to_string(cell.connections) + "conn_" +
                            std::to_string(cell.offered_qps) + "qps";
    report.quality[key + "_p50_ms"] = cell.p50_ms;
    report.quality[key + "_p99_ms"] = cell.p99_ms;
    report.quality[key + "_achieved_qps"] = cell.achieved_qps;
  }
  std::printf("\n%s", TelemetrySummary(report).c_str());
  const std::string telemetry_path =
      telemetry::TelemetryOutPath(argc, argv);
  if (!telemetry_path.empty()) {
    ENLD_CHECK_OK(telemetry::WriteRunReport(report, telemetry_path));
    std::printf("telemetry report -> %s\n", telemetry_path.c_str());
  }
  return 0;
}
