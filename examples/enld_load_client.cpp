// Load-generator client for the wire serving front-end (docs/SERVING.md):
// rebuilds the exact workload enld_server was started with, streams its
// incremental datasets to the server as framed detect requests, and prints
// the same per-request lines as the in-process data_platform_stream
// example — so a drill can diff "^request" lines between a network run
// (with wire faults armed server-side) and the sequential in-process path
// and assert they are byte-identical.
//
//   ./build/examples/enld_load_client [noise_rate] --port=<port> [flags]
//
//   --host=<ip>          server address (default 127.0.0.1)
//   --datasets=<n>       workload stream length (default 12) — must match
//                        the server
//   --connections=<n>    spread the stream round-robin over n connections
//                        (default 1). The stream stays a closed loop —
//                        request i+1 is sent only after response i — which
//                        is what keeps the output order-deterministic
//                        while still exercising n concurrent server-side
//                        connection handlers.
//   --deadline=<s>       wire deadline header per request (0 = none; the
//                        server's configured budget applies)
//   --retries=<n>        max attempts per request for retryable wire
//                        failures — CRC-damaged frames, dropped
//                        connections (default 8)
//   --shutdown           send a shutdown frame after the stream so the
//                        server drains and exits

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "data/workload.h"
#include "eval/metrics.h"
#include "flags.h"
#include "rpc/client.h"

int main(int argc, char** argv) {
  using namespace enld;
  const double noise_rate = flags::LeadingRate(argc, argv, "noise_rate", 0.2);
  const int port = flags::Port(argc, argv, "port", 0);
  if (port == 0) {
    std::fprintf(stderr, "--port=<server port> is required\n");
    return 2;
  }
  const std::string host = flags::Value(argc, argv, "host", "127.0.0.1");
  const size_t num_datasets = flags::Integer(argc, argv, "datasets", 12);
  const size_t num_connections = flags::Integer(argc, argv, "connections", 1);
  const double deadline = flags::Seconds(argc, argv, "deadline", 0.0);
  const size_t retries = flags::Integer(argc, argv, "retries", 8);
  const bool send_shutdown = flags::Has(argc, argv, "shutdown");

  WorkloadConfig workload_config = Cifar100WorkloadConfig(noise_rate);
  workload_config.stream.num_datasets = num_datasets;
  const Workload workload = BuildWorkload(workload_config);

  rpc::ClientConfig client_config;
  client_config.host = host;
  client_config.port = port;
  client_config.deadline_seconds = deadline;
  client_config.retry.max_attempts = retries;
  std::vector<std::unique_ptr<rpc::RpcClient>> clients;
  clients.reserve(num_connections);
  for (size_t c = 0; c < num_connections; ++c) {
    clients.push_back(std::make_unique<rpc::RpcClient>(client_config));
  }

  double f1_sum = 0.0;
  size_t served = 0;
  uint64_t updates_before = 0;
  for (size_t i = 0; i < workload.incremental.size(); ++i) {
    const Dataset& arriving = workload.incremental[i];
    rpc::RpcClient& client = *clients[i % num_connections];
    // Tag each logical request with a client-set id (1-based stream
    // position) — the server threads it through its audit records and the
    // stats ring, and echoes it in the response. Retries reuse the same id.
    const uint64_t request_id = static_cast<uint64_t>(i + 1);
    StatusOr<rpc::WireDetectResponse> response =
        client.Detect(arriving, /*deadline_seconds=*/-1.0, request_id);
    if (!response.ok()) {
      std::fprintf(stderr, "wire failure on request %zu: %s\n", i + 1,
                   response.status().ToString().c_str());
      return 1;
    }
    if (response->request_id != request_id) {
      std::fprintf(stderr,
                   "request %zu: server echoed request id %llu, expected "
                   "%llu\n",
                   i + 1,
                   static_cast<unsigned long long>(response->request_id),
                   static_cast<unsigned long long>(request_id));
      return 1;
    }
    if (!response->service_status.ok()) {
      std::fprintf(stderr, "request failed: %s\n",
                   response->service_status.ToString().c_str());
      continue;
    }
    std::vector<size_t> noisy(response->noisy_indices.begin(),
                              response->noisy_indices.end());
    const DetectionMetrics m = EvaluateDetection(arriving, noisy);
    f1_sum += m.f1;
    ++served;
    std::printf(
        "request %2zu: %3zu samples / %zu classes -> %2zu flagged noisy "
        "(F1 %.3f); clean bank %zu\n",
        i + 1, arriving.size(), arriving.ObservedLabelSet().size(),
        noisy.size(), m.f1,
        static_cast<size_t>(response->clean_bank_after));
    if (response->model_updates_after > updates_before) {
      std::printf("  -> automatic model update performed\n");
    }
    updates_before = response->model_updates_after;
  }

  if (served > 0) {
    std::printf("average detection F1 over this run: %.4f\n",
                f1_sum / served);
  }
  if (send_shutdown) {
    const Status stopped = clients[0]->SendShutdown();
    if (!stopped.ok()) {
      std::fprintf(stderr, "shutdown request failed: %s\n",
                   stopped.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
