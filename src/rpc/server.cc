#include "rpc/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <thread>
#include <utility>

#include "common/faults.h"
#include "common/telemetry/metrics.h"
#include "rpc/message.h"
#include "rpc/net.h"
#include "rpc/stats.h"
#include "store/snapshot.h"

namespace enld {
namespace rpc {

namespace {

struct ServerMetrics {
  telemetry::Counter* connections;
  telemetry::Counter* requests;
  telemetry::Counter* responses;
  telemetry::Counter* wire_errors;
  telemetry::Counter* deadline_propagated;
  telemetry::Counter* stats_served;
  /// End-to-end serving latency per dispatched detect request: frame fully
  /// read → response write finished. Observed exactly once per dispatched
  /// request, so its count equals the rpc/requests counter.
  telemetry::Histogram* e2e_seconds;

  static const ServerMetrics& Get() {
    static const ServerMetrics m = [] {
      auto& registry = telemetry::MetricsRegistry::Global();
      return ServerMetrics{
          registry.GetCounter("rpc/connections"),
          registry.GetCounter("rpc/requests"),
          registry.GetCounter("rpc/responses"),
          registry.GetCounter("rpc/wire_errors"),
          registry.GetCounter("rpc/deadline_propagated"),
          registry.GetCounter("rpc/stats_served"),
          registry.GetHistogram("rpc/e2e_seconds",
                                telemetry::LogScaleBuckets())};
    }();
    return m;
  }
};

/// How long one rpc/delay fire stalls a request — long enough to be
/// visible in latency percentiles, short enough for chaos drills.
constexpr auto kInjectedDelay = std::chrono::milliseconds(20);

/// Applies the armed wire faults to a just-read request frame, before the
/// payload checksum is verified or the frame is interpreted. Returns false
/// when the connection must be closed without a reply (drop). Truncation
/// and corruption damage the buffered payload; the regular verification
/// path then reports them exactly as it would report real wire damage.
bool ApplyWireFaults(Frame* frame, bool* dropped) {
  *dropped = false;
  if (!faults::Enabled()) return true;
  if (faults::ShouldFail("rpc/delay")) {
    std::this_thread::sleep_for(kInjectedDelay);
  }
  if (faults::ShouldFail("rpc/drop_frame")) {
    *dropped = true;
    return false;
  }
  if (faults::ShouldFail("rpc/truncate_frame")) {
    frame->payload.resize(frame->payload.size() / 2);
  }
  if (faults::ShouldFail("rpc/corrupt_frame")) {
    if (!frame->payload.empty()) {
      frame->payload[frame->payload.size() / 2] ^= 0x40;
    } else {
      // Nothing to corrupt in the payload: damage the declared checksum
      // instead, so the fire is still observable as a CRC mismatch.
      frame->header.payload_crc ^= 0x1;
    }
  }
  return true;
}

}  // namespace

RpcServer::RpcServer(DataPlatform* platform, ServerConfig config)
    : platform_(platform), config_(std::move(config)) {}

RpcServer::~RpcServer() { Shutdown(); }

Status RpcServer::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) {
      return Status::FailedPrecondition("server already started");
    }
    started_ = true;
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Unavailable(std::string("socket() failed: ") +
                               std::strerror(errno));
  }
  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable,
               sizeof(enable));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(config_.port));
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad numeric IPv4 host '" + config_.host +
                                   "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const Status status = Status::Unavailable(
        "bind(" + config_.host + ":" + std::to_string(config_.port) +
        ") failed: " + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, config_.listen_backlog) != 0) {
    const Status status = Status::Unavailable(
        std::string("listen() failed: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  pipeline_ = std::make_unique<RequestPipeline>(platform_, config_.pipeline);
  uptime_.Restart();
  accept_thread_ =
      std::thread([this, fd = listen_fd_] { AcceptLoop(fd); });
  return Status::OK();
}

void RpcServer::AcceptLoop(int listen_fd) {
  while (true) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        if (fd >= 0) ::close(fd);
        return;
      }
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // listen socket gone; Shutdown is tearing us down
      }
      if (connection_fds_.size() >= config_.max_connections) {
        // Front-door shedding: tell the client the server is saturated
        // (retryable) instead of letting it queue invisibly in the
        // backlog.
        ++counters_.connections_rejected;
        FrameHeader header;
        header.type = FrameType::kError;
        WriteFrame(fd, header,
                   EncodeErrorBody(Status::Unavailable(
                       "server at max_connections; retry later")));
        ::close(fd);
        continue;
      }
      ++counters_.connections_accepted;
      const uint64_t connection_id = counters_.connections_accepted;
      connection_fds_.insert(fd);
      connection_threads_.emplace_back(
          [this, fd, connection_id] { ServeConnection(fd, connection_id); });
    }
    ServerMetrics::Get().connections->Increment();
  }
}

Status RpcServer::SendError(int fd, uint64_t sequence, const Status& error,
                            ConnectionSummary* conn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.wire_errors;
  }
  ServerMetrics::Get().wire_errors->Increment();
  if (conn != nullptr) ++conn->errors;
  FrameHeader header;
  header.type = FrameType::kError;
  header.sequence = sequence;
  const std::string body = EncodeErrorBody(error);
  const Status written = WriteFrame(fd, header, body);
  if (written.ok() && conn != nullptr) {
    conn->bytes_written += kFrameHeaderBytes + body.size();
  }
  return written;
}

Status RpcServer::ServeDetect(int fd, const Frame& frame,
                              const Stopwatch& received,
                              ConnectionSummary* conn) {
  StatusOr<Dataset> dataset = DecodeDetectRequest(frame.payload);
  if (!dataset.ok()) {
    // The frame survived its CRC, so this is a malformed shard payload —
    // a client bug, not wire damage. Non-retryable error frame.
    return SendError(fd, frame.header.sequence, dataset.status(), conn);
  }

  SubmitOptions options;
  options.request_id = frame.header.request_id;
  if (frame.header.deadline_seconds > 0.0) {
    options.deadline_seconds = frame.header.deadline_seconds;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.deadline_propagated;
    }
    ServerMetrics::Get().deadline_propagated->Increment();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.requests;
  }
  ServerMetrics::Get().requests->Increment();
  ++conn->requests;

  // Closed loop per connection: block here until the dispatcher finishes
  // this request. The pipeline's bounded queue is what pushes back on a
  // flood of connections.
  std::future<PipelineResponse> future =
      pipeline_->Submit(std::move(*dataset), options);
  PipelineResponse response = future.get();

  WireDetectResponse wire;
  wire.server_sequence = response.sequence;
  wire.request_id = response.request_id;
  wire.service_status = response.result.status();
  if (response.result.ok()) {
    const DetectionResult& result = *response.result;
    wire.noisy_indices.assign(result.noisy_indices.begin(),
                              result.noisy_indices.end());
    wire.clean_indices.assign(result.clean_indices.begin(),
                              result.clean_indices.end());
    wire.recovered_labels.assign(result.recovered_labels.begin(),
                                 result.recovered_labels.end());
  }
  wire.clean_bank_after = response.clean_bank_after;
  wire.model_updates_after = response.stats_after.model_updates;
  wire.requests_after = response.stats_after.requests;
  wire.queue_seconds = response.queue_seconds;
  wire.process_seconds = response.process_seconds;

  FrameHeader header;
  header.type = FrameType::kDetectResponse;
  header.sequence = frame.header.sequence;
  header.request_id = frame.header.request_id;
  const std::string body = EncodeDetectResponse(wire);
  const Status written = WriteFrame(fd, header, body);
  if (written.ok()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.responses;
    }
    ServerMetrics::Get().responses->Increment();
    ++conn->responses;
    conn->bytes_written += kFrameHeaderBytes + body.size();
  }

  // End-to-end latency: frame fully read through the response write — the
  // injected rpc/delay stall, queue wait, detection and the write itself
  // all show up in the percentiles. Observed once per dispatched request,
  // write failure or not, so the histogram count matches rpc/requests.
  const double e2e = received.ElapsedSeconds();
  ServerMetrics::Get().e2e_seconds->Observe(e2e);
  if (config_.slow_request_seconds > 0.0 &&
      e2e > config_.slow_request_seconds) {
    std::fprintf(
        stderr,
        "[enld_server] slow request: id=%llu seq=%llu e2e=%.3fs "
        "queue=%.3fs admission=%.3fs detect=%.3fs status=%s\n",
        static_cast<unsigned long long>(response.request_id),
        static_cast<unsigned long long>(response.sequence), e2e,
        response.queue_seconds, response.admission_seconds,
        response.detect_seconds,
        StatusCodeName(response.result.status().code()));
  }
  return written;
}

Status RpcServer::ServeStats(int fd, const Frame& frame,
                             ConnectionSummary* conn) {
  const std::string body = BuildStatsJson();
  FrameHeader header;
  header.type = FrameType::kStatsResponse;
  header.sequence = frame.header.sequence;
  header.request_id = frame.header.request_id;
  const Status written = WriteFrame(fd, header, body);
  if (written.ok()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.stats_served;
    }
    ServerMetrics::Get().stats_served->Increment();
    conn->bytes_written += kFrameHeaderBytes + body.size();
  }
  return written;
}

std::string RpcServer::BuildStatsJson() const {
  StatsInfo info;
  info.uptime_seconds = uptime_.ElapsedSeconds();
  info.config_fingerprint = store::FingerprintConfig(platform_->config());
  {
    std::lock_guard<std::mutex> lock(mu_);
    info.connections_accepted = counters_.connections_accepted;
    info.connections_rejected = counters_.connections_rejected;
    info.connections_active = connection_fds_.size();
    info.requests = counters_.requests;
    info.responses = counters_.responses;
    info.wire_errors = counters_.wire_errors;
    info.dropped_frames = counters_.dropped_frames;
    info.deadline_propagated = counters_.deadline_propagated;
    info.stats_served = counters_.stats_served;
  }
  if (pipeline_ != nullptr) {
    info.pipeline = pipeline_->counters();
    info.queue_depth = pipeline_->queue_depth();
    info.recent_requests = pipeline_->RecentRequests();
  }
  info.metrics = telemetry::MetricsRegistry::Global().Snapshot();
  return RenderStatsJson(info);
}

void RpcServer::ServeConnection(int fd, uint64_t connection_id) {
  ConnectionSummary conn;
  conn.id = connection_id;
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) break;
    }
    StatusOr<Frame> read = ReadFrameRaw(fd);
    if (!read.ok()) {
      if (read.status().code() == StatusCode::kNotFound) break;  // clean EOF
      if (read.status().code() == StatusCode::kUnavailable) break;  // torn
      // Protocol violation (bad magic/version/oversized): tell the peer
      // why, then hang up — the stream cannot be resynchronized.
      SendError(fd, 0, read.status(), &conn);
      break;
    }
    Frame frame = std::move(*read);
    // The end-to-end clock starts the moment the frame is fully read, so
    // injected wire stalls and everything downstream count toward it.
    Stopwatch received;
    conn.bytes_read += kFrameHeaderBytes + frame.header.payload_size;

    bool dropped = false;
    if (!ApplyWireFaults(&frame, &dropped)) {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.dropped_frames;
      break;  // injected drop: close without a reply, like a dead link
    }

    const Status payload_ok =
        VerifyFramePayload(frame.header, frame.payload);
    if (!payload_ok.ok()) {
      // Wire damage (real or injected): retryable error frame; framing is
      // intact (we read the declared byte count), so keep the connection.
      if (!SendError(fd, frame.header.sequence, payload_ok, &conn).ok()) {
        break;
      }
      continue;
    }

    if (frame.header.type == FrameType::kShutdown) {
      FrameHeader ack;
      ack.type = FrameType::kShutdownAck;
      ack.sequence = frame.header.sequence;
      if (WriteFrame(fd, ack, "").ok()) {
        conn.bytes_written += kFrameHeaderBytes;
      }
      RequestShutdown();
      break;
    }
    if (frame.header.type == FrameType::kStats) {
      // Served inline on the handler thread, never submitted to the
      // pipeline: a stats scrape must not perturb (or wait behind) the
      // deterministic detection stream.
      if (!ServeStats(fd, frame, &conn).ok()) break;
      continue;
    }
    if (frame.header.type != FrameType::kDetectRequest) {
      if (!SendError(fd, frame.header.sequence,
                     Status::InvalidArgument(
                         "frame type not servable by this endpoint"),
                     &conn)
               .ok()) {
        break;
      }
      continue;
    }
    if (!ServeDetect(fd, frame, received, &conn).ok()) break;
  }

  ::close(fd);
  std::lock_guard<std::mutex> lock(mu_);
  connection_fds_.erase(fd);
  finished_connections_.push_back(conn);
  while (finished_connections_.size() > kMaxConnectionSummaries) {
    finished_connections_.pop_front();
  }
}

void RpcServer::WaitForShutdown() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_cv_.wait(lock, [this] { return stopping_; });
}

void RpcServer::RequestShutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  stopping_ = true;
  shutdown_cv_.notify_all();
}

Status RpcServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return Status::OK();
    stopping_ = true;
    shutdown_cv_.notify_all();
  }

  if (listen_fd_ >= 0) {
    // shutdown() wakes the blocked accept(); the loop then sees stopping_
    // and exits. The fd is closed only after the join, so its number
    // cannot be reused while the loop may still accept on it.
    ::shutdown(listen_fd_, SHUT_RDWR);
    if (accept_thread_.joinable()) accept_thread_.join();
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  {
    // Unblock handlers parked in recv(); they close their own fds.
    std::lock_guard<std::mutex> lock(mu_);
    for (int fd : connection_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  std::vector<std::thread> handlers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    handlers.swap(connection_threads_);
  }
  for (std::thread& handler : handlers) {
    if (handler.joinable()) handler.join();
  }

  if (config_.log_shutdown_summary) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!summary_logged_) {
      summary_logged_ = true;
      if (pipeline_ != nullptr) {
        const RequestPipeline::Counters pc = pipeline_->counters();
        std::fprintf(stderr,
                     "[enld_server] queue pressure: completed=%llu "
                     "hol_blocked=%llu deadline_drops=%llu\n",
                     static_cast<unsigned long long>(pc.completed),
                     static_cast<unsigned long long>(pc.hol_blocked),
                     static_cast<unsigned long long>(pc.queue_deadline_drops));
      }
      for (const ConnectionSummary& conn : finished_connections_) {
        std::fprintf(
            stderr,
            "[enld_server] conn %llu: requests=%llu responses=%llu "
            "errors=%llu bytes_read=%llu bytes_written=%llu\n",
            static_cast<unsigned long long>(conn.id),
            static_cast<unsigned long long>(conn.requests),
            static_cast<unsigned long long>(conn.responses),
            static_cast<unsigned long long>(conn.errors),
            static_cast<unsigned long long>(conn.bytes_read),
            static_cast<unsigned long long>(conn.bytes_written));
      }
    }
  }

  if (pipeline_ == nullptr) return Status::OK();
  return pipeline_->Shutdown();
}

RpcServer::Counters RpcServer::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::vector<RpcServer::ConnectionSummary> RpcServer::connection_summaries()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<ConnectionSummary>(finished_connections_.begin(),
                                        finished_connections_.end());
}

}  // namespace rpc
}  // namespace enld
