// Frame codec coverage (docs/SERVING.md §1–2): byte round-trips of the
// frame prefix and every payload body, plus the typed error contract —
// protocol violations (bad magic, foreign byte order, unknown version or
// type, oversized declarations, trailing bytes) read as InvalidArgument,
// while anything a resend could repair (truncation, CRC damage anywhere)
// reads as Unavailable and counts rpc/crc_failures.

#include "rpc/frame.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/telemetry/metrics.h"
#include "data/workload.h"
#include "rpc/message.h"
#include "store/io.h"
#include "test_util.h"

namespace enld {
namespace rpc {
namespace {

FrameHeader RequestHeader() {
  FrameHeader header;
  header.type = FrameType::kDetectRequest;
  header.sequence = 0x0123456789abcdefull;
  header.request_id = 0xfeedfacecafef00dull;
  header.deadline_seconds = 2.5;
  return header;
}

/// Rewrites the header CRC of an encoded v2 frame so deliberate field
/// edits still pass the checksum — the way to reach the post-CRC
/// validation (version / type / length checks) in tests. The v2 header
/// CRC covers [0, 46) and lives at [46, 50).
void FixHeaderCrc(std::string* frame) {
  const uint32_t crc = store::Crc32(frame->data(), 46);
  std::string patched;
  store::PutU32(&patched, crc);
  frame->replace(46, 4, patched);
}

uint64_t CrcFailures() {
  return telemetry::MetricsRegistry::Global()
      .GetCounter("rpc/crc_failures")
      ->Value();
}

TEST(FrameCodec, RoundTripsHeaderAndPayload) {
  const std::string payload = "forty-two bytes of payload, give or take";
  const std::string encoded = EncodeFrame(RequestHeader(), payload);
  ASSERT_EQ(encoded.size(), kFrameHeaderBytes + payload.size());

  const StatusOr<Frame> decoded = DecodeFrame(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(static_cast<uint8_t>(encoded[12]), kFrameVersion);
  EXPECT_EQ(decoded->header.type, FrameType::kDetectRequest);
  EXPECT_EQ(decoded->header.sequence, 0x0123456789abcdefull);
  EXPECT_EQ(decoded->header.request_id, 0xfeedfacecafef00dull);
  EXPECT_EQ(decoded->header.deadline_seconds, 2.5);
  EXPECT_EQ(decoded->header.payload_size, payload.size());
  EXPECT_EQ(decoded->payload, payload);
}

TEST(FrameCodec, RoundTripsEmptyPayload) {
  FrameHeader header;
  header.type = FrameType::kShutdown;
  const StatusOr<Frame> decoded = DecodeFrame(EncodeFrame(header, ""));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->header.type, FrameType::kShutdown);
  EXPECT_EQ(decoded->header.deadline_seconds, 0.0);
  EXPECT_TRUE(decoded->payload.empty());
}

TEST(FrameCodec, TruncatedPrefixIsRetryable) {
  const std::string encoded = EncodeFrame(RequestHeader(), "x");
  const StatusOr<FrameHeader> decoded =
      DecodeFrameHeader(encoded.substr(0, kFrameHeaderBytes - 1));
  EXPECT_EQ(decoded.status().code(), StatusCode::kUnavailable);
}

TEST(FrameCodec, BadMagicIsProtocolViolation) {
  std::string encoded = EncodeFrame(RequestHeader(), "x");
  encoded[0] ^= 0xff;
  EXPECT_EQ(DecodeFrameHeader(encoded).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FrameCodec, ForeignByteOrderIsProtocolViolation) {
  std::string encoded = EncodeFrame(RequestHeader(), "x");
  std::swap(encoded[8], encoded[11]);  // reverse the byte-order tag
  EXPECT_EQ(DecodeFrameHeader(encoded).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FrameCodec, FlippedHeaderBitIsRetryableNotProtocolError) {
  // A single flipped bit in the version byte must read as wire damage
  // (header CRC mismatch, retryable), NOT as "unsupported version": the
  // CRC is checked before any field is trusted.
  std::string encoded = EncodeFrame(RequestHeader(), "x");
  encoded[12] ^= 0x02;
  const uint64_t failures_before = CrcFailures();
  EXPECT_EQ(DecodeFrameHeader(encoded).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(CrcFailures(), failures_before + 1);
}

TEST(FrameCodec, UnsupportedVersionIsProtocolViolation) {
  // Version 2 is the only version: the retired version 1 and the
  // not-yet-existing version 3 both fail the post-CRC version check once
  // the CRC is repaired — a protocol violation, not wire damage.
  for (const uint8_t version : {uint8_t{1}, uint8_t{3}}) {
    std::string encoded = EncodeFrame(RequestHeader(), "x");
    encoded[12] = static_cast<char>(version);
    FixHeaderCrc(&encoded);
    EXPECT_EQ(DecodeFrameHeader(encoded).status().code(),
              StatusCode::kInvalidArgument)
        << "version " << int{version};
  }
}

TEST(FrameCodec, UnknownFrameTypeIsProtocolViolation) {
  std::string encoded = EncodeFrame(RequestHeader(), "x");
  encoded[13] = 0x7f;
  FixHeaderCrc(&encoded);
  EXPECT_FALSE(IsKnownFrameType(0x7f));
  EXPECT_EQ(DecodeFrameHeader(encoded).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FrameCodec, OversizedPayloadDeclarationIsProtocolViolation) {
  std::string encoded = EncodeFrame(RequestHeader(), "x");
  std::string huge;
  store::PutU64(&huge, kMaxFramePayloadBytes + 1);
  encoded.replace(38, 8, huge);  // v2 payload length field
  FixHeaderCrc(&encoded);
  EXPECT_EQ(DecodeFrameHeader(encoded).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FrameCodec, CorruptPayloadByteIsRetryable) {
  std::string encoded = EncodeFrame(RequestHeader(), "payload bytes");
  encoded[kFrameHeaderBytes + 3] ^= 0x10;
  const uint64_t failures_before = CrcFailures();
  EXPECT_EQ(DecodeFrame(encoded).status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(CrcFailures(), failures_before + 1);
}

TEST(FrameCodec, TruncatedPayloadIsRetryable) {
  const std::string encoded = EncodeFrame(RequestHeader(), "payload bytes");
  EXPECT_EQ(
      DecodeFrame(encoded.substr(0, encoded.size() - 1)).status().code(),
      StatusCode::kUnavailable);
}

TEST(FrameCodec, TrailingBytesAreProtocolViolation) {
  std::string encoded = EncodeFrame(RequestHeader(), "payload bytes");
  encoded.push_back('\0');
  EXPECT_EQ(DecodeFrame(encoded).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FrameCodec, UntaggedV2FrameDecodesWithZeroRequestId) {
  FrameHeader header;
  header.type = FrameType::kStats;
  const StatusOr<Frame> decoded = DecodeFrame(EncodeFrame(header, ""));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->header.type, FrameType::kStats);
  EXPECT_EQ(decoded->header.request_id, 0u);
}

TEST(MessageBodies, DetectRequestRoundTripsByteExactly) {
  const Workload workload =
      BuildWorkload(testing_util::TinyWorkloadConfig(0.2));
  const Dataset& original = workload.incremental[0];
  const std::string payload = EncodeDetectRequest(original);
  const StatusOr<Dataset> decoded = DecodeDetectRequest(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  // Byte-exactness through the shard codec is the strongest equality the
  // wire can promise: re-encoding the decoded dataset reproduces the
  // payload bit for bit.
  EXPECT_EQ(EncodeDetectRequest(*decoded), payload);
}

TEST(MessageBodies, MalformedDetectRequestIsRejected) {
  EXPECT_FALSE(DecodeDetectRequest("definitely not a shard").ok());
}

TEST(MessageBodies, DetectResponseRoundTrips) {
  WireDetectResponse response;
  response.server_sequence = 7;
  response.request_id = 0xabad1deaull;
  response.service_status = Status::DeadlineExceeded("budget blown");
  response.noisy_indices = {3, 1, 4, 1, 5};
  response.clean_indices = {9, 2, 6};
  response.recovered_labels = {-1, 0, 12, -1};
  response.clean_bank_after = 1171;
  response.model_updates_after = 2;
  response.requests_after = 19;
  response.queue_seconds = 0.125;
  response.process_seconds = 1.75;

  const StatusOr<WireDetectResponse> decoded =
      DecodeDetectResponse(EncodeDetectResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->server_sequence, 7u);
  EXPECT_EQ(decoded->request_id, 0xabad1deaull);
  EXPECT_EQ(decoded->service_status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(decoded->service_status.message(), "budget blown");
  EXPECT_EQ(decoded->noisy_indices, response.noisy_indices);
  EXPECT_EQ(decoded->clean_indices, response.clean_indices);
  EXPECT_EQ(decoded->recovered_labels, response.recovered_labels);
  EXPECT_EQ(decoded->clean_bank_after, 1171u);
  EXPECT_EQ(decoded->model_updates_after, 2u);
  EXPECT_EQ(decoded->requests_after, 19u);
  EXPECT_EQ(decoded->queue_seconds, 0.125);
  EXPECT_EQ(decoded->process_seconds, 1.75);
}

TEST(MessageBodies, TruncatedDetectResponseIsRejected) {
  WireDetectResponse response;
  response.noisy_indices = {1, 2, 3};
  const std::string payload = EncodeDetectResponse(response);
  for (const size_t keep : {size_t{0}, size_t{4}, payload.size() - 1}) {
    EXPECT_EQ(
        DecodeDetectResponse(payload.substr(0, keep)).status().code(),
        StatusCode::kInvalidArgument)
        << "kept " << keep << " byte(s)";
  }
}

TEST(MessageBodies, ErrorBodyRoundTrips) {
  const Status original = Status::Unavailable("frame payload CRC mismatch");
  Status carried;
  ASSERT_TRUE(DecodeErrorBody(EncodeErrorBody(original), &carried).ok());
  EXPECT_EQ(carried.code(), StatusCode::kUnavailable);
  EXPECT_EQ(carried.message(), original.message());

  Status ignored;
  EXPECT_EQ(DecodeErrorBody("zz", &ignored).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace rpc
}  // namespace enld
