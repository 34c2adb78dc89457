#ifndef ENLD_RPC_FRAME_H_
#define ENLD_RPC_FRAME_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace enld {
namespace rpc {

/// Wire-level frame codec of the serving front-end (docs/SERVING.md).
///
/// Every message on an ENLD serving connection is one length-prefixed
/// binary frame, built from the same little-endian + CRC32 primitives as
/// the durable store (store/io.h), so the bytes are host-independent and
/// every kind of wire damage is caught by a checksum before any payload is
/// interpreted:
///
///   offset size field
///   0      8    magic "ENLDRPC1"
///   8      4    byte-order tag 0x01020304
///   12     1    frame version (2)
///   13     1    frame type (FrameType)
///   14     8    sequence number (echoed in the response)
///   22     8    request id (client-set, echoed; 0 = unset)
///   30     8    deadline header, f64 seconds (0 = none; requests only)
///   38     8    payload byte length
///   46     4    CRC32 over bytes [0, 46)   (header CRC)
///   50     4    CRC32 over the payload     (payload CRC)
///   54     n    payload
///
/// Version 2 is the only version: any other version byte is a protocol
/// violation. The header CRC is verified before the version is trusted,
/// so a flipped version bit reads as retryable wire damage.
///
/// Error contract (mirrors the store's, split by retryability):
///
/// * `InvalidArgument` — protocol violations that resending cannot fix:
///   bad magic, foreign byte order, unknown version or frame type, a
///   declared payload length over kMaxFramePayloadBytes. The peer is
///   confused or hostile; the connection should be closed.
/// * `Unavailable` — wire damage that a resend repairs: a buffer shorter
///   than one header, a payload shorter than the header declares, or a
///   header/payload CRC mismatch. CRC mismatches additionally count the
///   "rpc/crc_failures" telemetry counter. Clients retry these under the
///   same RetryPolicy machinery the store uses for flaky disks.

inline constexpr char kFrameMagic[] = "ENLDRPC1";  ///< 8 bytes on the wire.
inline constexpr uint32_t kFrameByteOrderTag = 0x01020304;
inline constexpr uint8_t kFrameVersion = 2;
/// Byte length of the frame prefix (everything before the payload).
inline constexpr size_t kFrameHeaderBytes = 54;
/// Upper bound on a declared payload length; anything larger is rejected
/// as InvalidArgument before any allocation happens.
inline constexpr uint64_t kMaxFramePayloadBytes = 64ull << 20;  // 64 MiB

enum class FrameType : uint8_t {
  /// Payload: one Dataset in the store's shard byte format.
  kDetectRequest = 1,
  /// Payload: a WireDetectResponse body (message.h).
  kDetectResponse = 2,
  /// Payload: a Status body — wire/protocol-level failure (message.h).
  kError = 3,
  /// Empty payload: ask the server to drain and stop.
  kShutdown = 4,
  /// Empty payload: acknowledges kShutdown before the server stops.
  kShutdownAck = 5,
  /// Empty payload: ask the server for a live stats/health snapshot.
  /// Served off the request path — never enters the pipeline queue.
  kStats = 6,
  /// Payload: the deterministic "enld-stats-v1" JSON document
  /// (docs/OBSERVABILITY.md).
  kStatsResponse = 7,
};

/// True for the FrameType values this build understands.
bool IsKnownFrameType(uint8_t type);

struct FrameHeader {
  FrameType type = FrameType::kError;
  /// Caller-chosen request identity, echoed verbatim in the response so a
  /// client can pair frames without trusting arrival order.
  uint64_t sequence = 0;
  /// Client-set observability identity, echoed in the response and carried
  /// through pipeline, platform, and audit records (docs/OBSERVABILITY.md).
  /// Unlike `sequence` it stays constant across retries of one logical
  /// request. 0 = unset.
  uint64_t request_id = 0;
  /// Per-request service-deadline header in seconds; 0 = no deadline
  /// requested (the server's configured default applies). Meaningful on
  /// request frames only.
  double deadline_seconds = 0.0;
  /// Declared payload byte length (filled by DecodeFrameHeader).
  uint64_t payload_size = 0;
  /// Declared payload CRC32 (filled by DecodeFrameHeader; EncodeFrame
  /// computes it from the payload).
  uint32_t payload_crc = 0;
};

struct Frame {
  FrameHeader header;
  std::string payload;
};

/// Serializes one complete frame (header CRC and payload CRC computed
/// here; `header.payload_size`/`payload_crc` inputs are ignored).
std::string EncodeFrame(const FrameHeader& header, const std::string& payload);

/// Validates and parses the frame prefix, the first kFrameHeaderBytes of
/// `prefix`. See the error contract above.
StatusOr<FrameHeader> DecodeFrameHeader(const std::string& prefix);

/// Checks `payload` against the declared length and CRC of `header`.
/// Unavailable on truncation or checksum mismatch.
Status VerifyFramePayload(const FrameHeader& header,
                          const std::string& payload);

/// Whole-buffer decode: header + payload verification in one call.
/// Exactly DecodeFrameHeader + VerifyFramePayload over a fully buffered
/// frame; trailing bytes beyond the declared payload are rejected as
/// InvalidArgument (frames are never concatenated inside one buffer here).
StatusOr<Frame> DecodeFrame(const std::string& buffer);

}  // namespace rpc
}  // namespace enld

#endif  // ENLD_RPC_FRAME_H_
