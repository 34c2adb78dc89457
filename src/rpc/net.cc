#include "rpc/net.h"

#include <cerrno>
#include <cstring>
#include <sys/socket.h>
#include <sys/types.h>

#include "common/telemetry/metrics.h"

namespace enld {
namespace rpc {

namespace {

struct NetMetrics {
  telemetry::Counter* bytes_read;
  telemetry::Counter* bytes_written;

  static const NetMetrics& Get() {
    static const NetMetrics m = [] {
      auto& registry = telemetry::MetricsRegistry::Global();
      return NetMetrics{registry.GetCounter("rpc/bytes_read"),
                        registry.GetCounter("rpc/bytes_written")};
    }();
    return m;
  }
};

}  // namespace

Status ReadExact(int fd, size_t size, std::string* out) {
  out->resize(size);
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::recv(fd, out->data() + done, size - done, 0);
    if (n == 0) {
      out->resize(done);
      if (done == 0) return Status::NotFound("connection closed");
      return Status::Unavailable(
          "connection closed mid-read after " + std::to_string(done) +
          " of " + std::to_string(size) + " byte(s)");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      out->resize(done);
      return Status::Unavailable(std::string("socket read failed: ") +
                                 std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  NetMetrics::Get().bytes_read->Add(size);
  return Status::OK();
}

Status WriteAll(int fd, const std::string& data) {
  size_t done = 0;
  while (done < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + done, data.size() - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(std::string("socket write failed: ") +
                                 std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  NetMetrics::Get().bytes_written->Add(data.size());
  return Status::OK();
}

StatusOr<Frame> ReadFrameRaw(int fd) {
  std::string prefix;
  ENLD_RETURN_IF_ERROR(ReadExact(fd, kFrameHeaderBytes, &prefix));
  StatusOr<FrameHeader> header = DecodeFrameHeader(prefix);
  if (!header.ok()) return header.status();
  Frame frame;
  frame.header = *header;
  if (header->payload_size > 0) {
    const Status read = ReadExact(fd, header->payload_size, &frame.payload);
    if (!read.ok()) {
      // A close between header and payload is a torn frame, not a clean
      // end-of-stream: keep it in the retryable class.
      if (read.code() == StatusCode::kNotFound) {
        return Status::Unavailable("connection closed mid-frame");
      }
      return read;
    }
  }
  return frame;
}

StatusOr<Frame> ReadFrame(int fd) {
  StatusOr<Frame> frame = ReadFrameRaw(fd);
  if (!frame.ok()) return frame.status();
  ENLD_RETURN_IF_ERROR(VerifyFramePayload(frame->header, frame->payload));
  return frame;
}

Status WriteFrame(int fd, const FrameHeader& header,
                  const std::string& payload) {
  return WriteAll(fd, EncodeFrame(header, payload));
}

}  // namespace rpc
}  // namespace enld
