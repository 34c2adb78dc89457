#ifndef ENLD_RPC_SERVER_H_
#define ENLD_RPC_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "enld/pipeline.h"
#include "rpc/frame.h"

namespace enld {
namespace rpc {

/// The wire-level serving front-end (docs/SERVING.md): a framed TCP
/// socket server putting `RequestPipeline` — and through it one
/// `DataPlatform` — on the network.
///
/// Shape: one accept thread, one handler thread per connection, one
/// shared RequestPipeline. Each handler reads one frame, dispatches it,
/// and writes the reply before reading the next — a closed loop per
/// connection, so responses on a connection always arrive in that
/// connection's request order. Concurrency comes from multiple
/// connections; the pipeline's single dispatcher still serializes
/// platform access, preserving the byte-identical-to-sequential
/// determinism contract.
///
/// Backpressure composes end to end: the pipeline's bounded queue blocks
/// `Submit`, which blocks the handler, which stops reading its socket,
/// which fills the kernel receive buffer, which blocks the remote
/// producer — no layer buffers unboundedly.
///
/// Deadline propagation: a request frame's deadline header (seconds)
/// overrides the platform's request_deadline_seconds for that request
/// only, via `SubmitOptions::deadline_seconds` (0 on the wire = no
/// deadline requested = server default applies).
///
/// Wire fault sites (docs/ROBUSTNESS.md §1), all checked between reading
/// a request frame and interpreting it — before the pipeline is touched,
/// so a client retry never re-executes detection and chaos-drill output
/// stays byte-identical to a fault-free run:
///
///   rpc/delay           stalls the request ~20 ms (latency site)
///   rpc/drop_frame      drops the request and closes the connection
///   rpc/truncate_frame  truncates the received payload (CRC then fails)
///   rpc/corrupt_frame   flips one payload byte (CRC then fails)
///
/// Telemetry: rpc/connections, rpc/requests, rpc/responses,
/// rpc/wire_errors, rpc/deadline_propagated, rpc/bytes_read,
/// rpc/bytes_written, rpc/crc_failures.
struct ServerConfig {
  /// Numeric IPv4 address to bind; loopback by default.
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back with port()).
  int port = 0;
  int listen_backlog = 64;
  /// Connections beyond this are accepted and immediately closed with a
  /// kError(Unavailable) frame — overload shedding at the front door.
  size_t max_connections = 64;
  /// Configuration of the RequestPipeline the server fronts (queue
  /// capacity, batching, shedding, snapshot hook).
  PipelineConfig pipeline;
  /// Detect requests whose end-to-end wall time (frame fully read →
  /// response written) exceeds this many seconds are logged to stderr with
  /// their request id and stage breakdown. 0 disables the log.
  double slow_request_seconds = 0.0;
  /// Print the queue-pressure line and per-connection totals (requests,
  /// errors, bytes) to stderr when the server shuts down — what serving
  /// drills grep. Off by default so tests stay quiet.
  bool log_shutdown_summary = false;
};

class RpcServer {
 public:
  /// `platform` must be initialized and outlive the server.
  RpcServer(DataPlatform* platform, ServerConfig config);
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Binds, listens and starts the accept loop. Fails with Unavailable on
  /// socket errors (port in use, …). Call at most once.
  Status Start();

  /// The bound TCP port (after Start); useful with `port = 0`.
  int port() const { return port_; }

  /// Blocks until a kShutdown frame arrives or Shutdown() is called.
  void WaitForShutdown();

  /// Stops accepting, unblocks every connection, joins all threads and
  /// drains the pipeline. Idempotent; returns the pipeline's deferred
  /// snapshot status. Also run by the destructor.
  Status Shutdown();

  /// Monotonic serving counters (also exported as rpc/* telemetry).
  struct Counters {
    uint64_t connections_accepted = 0;
    uint64_t connections_rejected = 0;  ///< over max_connections
    uint64_t requests = 0;              ///< detect requests dispatched
    uint64_t responses = 0;             ///< detect responses written
    uint64_t wire_errors = 0;           ///< kError frames written
    uint64_t dropped_frames = 0;        ///< rpc/drop_frame fires
    uint64_t deadline_propagated = 0;   ///< requests with a wire deadline
    uint64_t stats_served = 0;          ///< kStats snapshots written
  };
  Counters counters() const;

  /// Lifetime totals of one finished connection, for the shutdown summary
  /// and post-hoc inspection.
  struct ConnectionSummary {
    uint64_t id = 0;             ///< 1-based accept order
    uint64_t requests = 0;       ///< detect requests dispatched
    uint64_t responses = 0;      ///< detect responses written
    uint64_t errors = 0;         ///< kError frames written
    uint64_t bytes_read = 0;     ///< frame bytes received
    uint64_t bytes_written = 0;  ///< frame bytes sent
  };
  /// Summaries of closed connections, oldest first (bounded: the most
  /// recent kMaxConnectionSummaries are retained).
  std::vector<ConnectionSummary> connection_summaries() const;

  /// Builds the "enld-stats-v1" document (rpc/stats.h) from live state —
  /// the same bytes a kStats frame returns. Callable any time between
  /// Start and Shutdown, off the request path.
  std::string BuildStatsJson() const;

  /// Closed-connection summaries retained for connection_summaries().
  static constexpr size_t kMaxConnectionSummaries = 1024;

 private:
  /// Accepts on `listen_fd` until Shutdown. The fd comes by value:
  /// listen_fd_ belongs to the thread that runs Start and Shutdown.
  void AcceptLoop(int listen_fd);
  void ServeConnection(int fd, uint64_t connection_id);
  /// Handles one verified detect-request frame on `fd`. `received` started
  /// when the frame was fully read — its elapsed time at response write is
  /// the request's end-to-end serving latency.
  Status ServeDetect(int fd, const Frame& frame, const Stopwatch& received,
                     ConnectionSummary* conn);
  /// Replies to a kStats frame with the rendered stats document.
  Status ServeStats(int fd, const Frame& frame, ConnectionSummary* conn);
  Status SendError(int fd, uint64_t sequence, const Status& error,
                   ConnectionSummary* conn);
  void RequestShutdown();

  DataPlatform* platform_;
  ServerConfig config_;
  std::unique_ptr<RequestPipeline> pipeline_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;

  mutable std::mutex mu_;
  std::condition_variable shutdown_cv_;
  bool stopping_ = false;
  bool started_ = false;
  std::set<int> connection_fds_;
  std::vector<std::thread> connection_threads_;
  Counters counters_;
  std::deque<ConnectionSummary> finished_connections_;  ///< guarded by mu_
  bool summary_logged_ = false;  ///< guarded by mu_; print once
  Stopwatch uptime_;             ///< restarted by Start()
};

}  // namespace rpc
}  // namespace enld

#endif  // ENLD_RPC_SERVER_H_
