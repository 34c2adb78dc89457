#include "rpc/frame.h"

#include <cstring>

#include "common/telemetry/metrics.h"
#include "store/io.h"

namespace enld {
namespace rpc {

namespace {

void CountCrcFailure() {
  telemetry::MetricsRegistry::Global()
      .GetCounter("rpc/crc_failures")
      ->Increment();
}

}  // namespace

bool IsKnownFrameType(uint8_t type) {
  switch (static_cast<FrameType>(type)) {
    case FrameType::kDetectRequest:
    case FrameType::kDetectResponse:
    case FrameType::kError:
    case FrameType::kShutdown:
    case FrameType::kShutdownAck:
    case FrameType::kStats:
    case FrameType::kStatsResponse:
      return true;
  }
  return false;
}

std::string EncodeFrame(const FrameHeader& header,
                        const std::string& payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  store::PutBytes(&out, kFrameMagic, 8);
  store::PutU32(&out, kFrameByteOrderTag);
  store::PutU8(&out, kFrameVersion);
  store::PutU8(&out, static_cast<uint8_t>(header.type));
  store::PutU64(&out, header.sequence);
  store::PutU64(&out, header.request_id);
  store::PutF64(&out, header.deadline_seconds);
  store::PutU64(&out, payload.size());
  store::PutU32(&out, store::Crc32(out.data(), out.size()));
  store::PutU32(&out, store::Crc32(payload));
  out.append(payload);
  return out;
}

StatusOr<FrameHeader> DecodeFrameHeader(const std::string& prefix) {
  if (prefix.size() < kFrameHeaderBytes) {
    return Status::Unavailable(
        "truncated frame header: got " + std::to_string(prefix.size()) +
        " byte(s), want " + std::to_string(kFrameHeaderBytes));
  }
  if (std::memcmp(prefix.data(), kFrameMagic, 8) != 0) {
    return Status::InvalidArgument("bad frame magic (not an ENLD frame)");
  }
  store::BinaryReader reader(prefix);
  reader.Skip(8);  // magic, just compared
  uint32_t tag = 0;
  uint8_t version = 0, type = 0;
  FrameHeader header;
  uint32_t header_crc = 0;
  reader.ReadU32(&tag);
  reader.ReadU8(&version);
  reader.ReadU8(&type);
  reader.ReadU64(&header.sequence);
  reader.ReadU64(&header.request_id);
  reader.ReadF64(&header.deadline_seconds);
  reader.ReadU64(&header.payload_size);
  reader.ReadU32(&header_crc);
  reader.ReadU32(&header.payload_crc);
  if (tag != kFrameByteOrderTag) {
    return Status::InvalidArgument("frame written with a foreign byte order");
  }
  // The header CRC is checked before version/type/length are trusted: a
  // flipped bit in any of them must read as wire damage (retryable), not
  // as a protocol violation.
  if (store::Crc32(prefix.data(), kFrameHeaderBytes - 8) != header_crc) {
    CountCrcFailure();
    return Status::Unavailable("frame header CRC mismatch");
  }
  if (version != kFrameVersion) {
    return Status::InvalidArgument("unsupported frame version " +
                                   std::to_string(version));
  }
  if (!IsKnownFrameType(type)) {
    return Status::InvalidArgument("unknown frame type " +
                                   std::to_string(type));
  }
  if (header.payload_size > kMaxFramePayloadBytes) {
    return Status::InvalidArgument(
        "frame payload of " + std::to_string(header.payload_size) +
        " bytes exceeds the " + std::to_string(kMaxFramePayloadBytes) +
        "-byte limit");
  }
  header.type = static_cast<FrameType>(type);
  return header;
}

Status VerifyFramePayload(const FrameHeader& header,
                          const std::string& payload) {
  if (payload.size() != header.payload_size) {
    return Status::Unavailable(
        "truncated frame payload: got " + std::to_string(payload.size()) +
        " byte(s), header declares " + std::to_string(header.payload_size));
  }
  if (store::Crc32(payload) != header.payload_crc) {
    CountCrcFailure();
    return Status::Unavailable("frame payload CRC mismatch");
  }
  return Status::OK();
}

StatusOr<Frame> DecodeFrame(const std::string& buffer) {
  StatusOr<FrameHeader> header = DecodeFrameHeader(buffer);
  if (!header.ok()) return header.status();
  const size_t total = kFrameHeaderBytes + header->payload_size;
  if (buffer.size() < total) {
    return Status::Unavailable(
        "truncated frame payload: buffer holds " +
        std::to_string(buffer.size() - kFrameHeaderBytes) +
        " byte(s), header declares " + std::to_string(header->payload_size));
  }
  if (buffer.size() > total) {
    return Status::InvalidArgument(
        std::to_string(buffer.size() - total) +
        " trailing byte(s) after the frame payload");
  }
  Frame frame;
  frame.header = *header;
  frame.payload = buffer.substr(kFrameHeaderBytes);
  ENLD_RETURN_IF_ERROR(VerifyFramePayload(frame.header, frame.payload));
  return frame;
}

}  // namespace rpc
}  // namespace enld
