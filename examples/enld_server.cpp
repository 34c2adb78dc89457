// Wire-level serving front-end (docs/SERVING.md): binds the framed-socket
// RpcServer over a DataPlatform initialized from the same synthetic
// CIFAR-100-style workload as data_platform_stream, then serves detection
// requests until a client sends a shutdown frame (or the process is
// signalled). Pair with enld_load_client, which builds the identical
// workload and streams its incremental datasets over the wire — the
// printed per-request lines are byte-identical to the in-process example.
//
//   ./build/examples/enld_server [noise_rate] [flags]
//
// `--help` prints the usage; any other argument that is not one of the
// flags below prints it to stderr and exits 2, before a socket opens.
//
//   --port=<n>             TCP port to bind on 127.0.0.1 (default 0 =
//                          ephemeral; the chosen port is printed as
//                          "serving on 127.0.0.1:<port>")
//   --datasets=<n>         workload stream length (default 12) — must
//                          match the client so both sides build the same
//                          data lake
//   --request_deadline=<s> default per-request service budget (0 = none);
//                          a request's wire deadline header overrides it
//   --queue_wait_budget=<s>  pipeline queue-wait budget; longer waits
//                          count as head-of-line blocked (docs/SERVING.md)
//   --batch_size=<n>       pipeline dispatcher batch size (default 4)
//   --max_connections=<n>  connections beyond this are shed with a
//                          retryable error frame (default 64)
//   --slow_request_seconds=<s>  log any detect request whose end-to-end
//                          wall time exceeds s to stderr, with its request
//                          id and stage breakdown (0 = off, the default)
//
// A live stats/health snapshot is served in-band on kStats frames: scrape
// it with `enld_cli stats 127.0.0.1:<port>` while the server runs
// (docs/OBSERVABILITY.md, "Live serving observability"). At shutdown the
// server prints a queue-pressure line plus per-connection request/error/
// byte totals to stderr.
//
// Wire fault sites rpc/delay, rpc/drop_frame, rpc/truncate_frame and
// rpc/corrupt_frame are armed via ENLD_FAULTS (docs/ROBUSTNESS.md); a fire
// summary is printed to stderr after shutdown. Pass
// --telemetry_out=report.json for the machine-readable serving report.

#include <cstdio>
#include <cstring>
#include <string>

#include "common/faults.h"
#include "common/stopwatch.h"
#include "common/telemetry/report.h"
#include "data/workload.h"
#include "enld/platform.h"
#include "eval/paper_setup.h"
#include "flags.h"
#include "rpc/server.h"

namespace {

constexpr char kUsage[] =
    "usage: enld_server [noise_rate] [--port=<n>] [--datasets=<n>]\n"
    "    [--request_deadline=<s>] [--queue_wait_budget=<s>]\n"
    "    [--batch_size=<n>] [--max_connections=<n>]\n"
    "    [--slow_request_seconds=<s>] [--telemetry_out=<path>]\n";

/// True when `arg`, the i-th argument, is the leading noise rate or one of
/// the `--name=value` flags main reads.
bool KnownArgument(int i, const char* arg) {
  if (i == 1 && std::strncmp(arg, "--", 2) != 0) return true;
  for (const char* name :
       {"port", "datasets", "request_deadline", "queue_wait_budget",
        "batch_size", "max_connections", "slow_request_seconds",
        "telemetry_out"}) {
    const std::string prefix = std::string("--") + name + "=";
    if (std::strncmp(arg, prefix.c_str(), prefix.size()) == 0) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace enld;
  if (flags::Has(argc, argv, "help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  for (int i = 1; i < argc; ++i) {
    if (!KnownArgument(i, argv[i])) {
      std::fprintf(stderr, "enld_server: unknown argument '%s'\n%s",
                   argv[i], kUsage);
      return 2;
    }
  }
  const double noise_rate = flags::LeadingRate(argc, argv, "noise_rate", 0.2);
  const int port = flags::Port(argc, argv, "port", 0);
  const size_t num_datasets = flags::Integer(argc, argv, "datasets", 12);
  const double request_deadline =
      flags::Seconds(argc, argv, "request_deadline", 0.0);
  const double queue_wait_budget =
      flags::Seconds(argc, argv, "queue_wait_budget", 0.0);
  const size_t batch_size = flags::Integer(argc, argv, "batch_size", 4);
  const size_t max_connections =
      flags::Integer(argc, argv, "max_connections", 64);
  const double slow_request_seconds =
      flags::Seconds(argc, argv, "slow_request_seconds", 0.0);

  telemetry::ResetTelemetry();

  // The same data lake the in-process example builds: the client rebuilds
  // it bit-for-bit from (noise_rate, datasets) and streams the incremental
  // half over the wire.
  WorkloadConfig workload_config = Cifar100WorkloadConfig(noise_rate);
  workload_config.stream.num_datasets = num_datasets;
  const Workload workload = BuildWorkload(workload_config);
  std::printf("data lake: %zu inventory samples, %d classes, noise %.2f\n",
              workload.inventory.size(), workload.inventory.num_classes,
              noise_rate);

  DataPlatformConfig config;
  config.enld = PaperEnldConfig(PaperDataset::kCifar100);
  config.update_every = 9;
  config.min_update_samples = 1500;
  config.request_deadline_seconds = request_deadline;
  DataPlatform platform(config);

  Stopwatch setup;
  const Status init = platform.Initialize(workload.inventory);
  if (!init.ok()) {
    std::fprintf(stderr, "initialization failed: %s\n",
                 init.ToString().c_str());
    return 1;
  }
  std::printf("setup done in %.2fs (general model + P-tilde estimation)\n",
              setup.ElapsedSeconds());

  rpc::ServerConfig server_config;
  server_config.port = port;
  server_config.max_connections = max_connections;
  server_config.pipeline.batch_size = batch_size;
  server_config.pipeline.queue_wait_budget_seconds = queue_wait_budget;
  server_config.slow_request_seconds = slow_request_seconds;
  server_config.log_shutdown_summary = true;
  rpc::RpcServer server(&platform, server_config);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  // Drill scripts parse this line for the ephemeral port; flush so it is
  // visible before the first connection arrives.
  std::printf("serving on %s:%d\n", server_config.host.c_str(),
              server.port());
  std::fflush(stdout);

  server.WaitForShutdown();
  const Status stopped = server.Shutdown();
  if (!stopped.ok()) {
    std::fprintf(stderr, "shutdown: %s\n", stopped.ToString().c_str());
  }

  const rpc::RpcServer::Counters counters = server.counters();
  const PlatformStats& stats = platform.stats();
  std::printf(
      "served %llu request(s) over %llu connection(s): %llu response(s), "
      "%llu wire error(s), %llu dropped frame(s), %llu with wire "
      "deadline\n",
      static_cast<unsigned long long>(counters.requests),
      static_cast<unsigned long long>(counters.connections_accepted),
      static_cast<unsigned long long>(counters.responses),
      static_cast<unsigned long long>(counters.wire_errors),
      static_cast<unsigned long long>(counters.dropped_frames),
      static_cast<unsigned long long>(counters.deadline_propagated));
  std::printf("platform: %llu request(s), %llu model update(s)\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.model_updates));
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

  telemetry::RunReport report = telemetry::CaptureRunReport();
  report.method = "ENLD-server";
  report.noise_rate = noise_rate;
  report.quality["requests"] = static_cast<double>(stats.requests);
  report.quality["wire_errors"] =
      static_cast<double>(counters.wire_errors);
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
