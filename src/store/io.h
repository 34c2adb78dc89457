#ifndef ENLD_STORE_IO_H_
#define ENLD_STORE_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/retry.h"
#include "common/status.h"

namespace enld {
namespace store {

/// Low-level byte layer of the durable store: explicit little-endian
/// encoding, CRC32 checksums, and crash-safe file writes.
///
/// Every multi-byte value written by the store goes through the Put*
/// helpers, so on-disk bytes are little-endian on any host and a file
/// written on one machine loads on another. Durability follows the
/// write-to-temp + fsync + rename discipline: a reader never observes a
/// partially written file under the final name, even across a crash.
///
/// All store reads and writes are counted into the telemetry registry
/// ("store/bytes_read", "store/bytes_written", "store/crc_failures"), and
/// the counts are independent of ENLD_THREADS.

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected), matching
/// Python's zlib.crc32 so tools/check_snapshot.py can re-verify files.
uint32_t Crc32(const void* data, size_t size);
uint32_t Crc32(const std::string& data);

/// Little-endian append helpers.
void PutU8(std::string* out, uint8_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
void PutI32(std::string* out, int32_t v);
void PutF32(std::string* out, float v);
void PutF64(std::string* out, double v);
void PutBytes(std::string* out, const void* data, size_t size);

/// Bounds-checked little-endian cursor over an in-memory buffer. Read*
/// returns false (leaving the output untouched) once the buffer is
/// exhausted — callers turn that into a typed "truncated" Status.
class BinaryReader {
 public:
  explicit BinaryReader(const std::string& data) : data_(data) {}

  size_t offset() const { return offset_; }
  size_t remaining() const { return data_.size() - offset_; }

  bool ReadU8(uint8_t* v);
  bool ReadU32(uint32_t* v);
  bool ReadU64(uint64_t* v);
  bool ReadI32(int32_t* v);
  bool ReadF32(float* v);
  bool ReadF64(double* v);
  /// Copies `size` raw bytes into `out` (resized).
  bool ReadBytes(size_t size, std::string* out);
  bool Skip(size_t size);

 private:
  const std::string& data_;
  size_t offset_ = 0;
};

/// Appends a checksummed section envelope shared by every store binary
/// format: id (u32), payload byte length (u64), CRC32(payload) (u32),
/// payload.
void PutSection(std::string* out, uint32_t id, const std::string& payload);

/// The same envelope for a payload appended to `out` in place:
/// BeginSection writes the id and placeholder length/CRC fields and
/// returns the envelope's offset; the caller appends the payload; then
/// FinishSection(out, offset) fills in its length and CRC32.
size_t BeginSection(std::string* out, uint32_t id);
void FinishSection(std::string* out, size_t section);

/// Reads one section envelope, verifying the id and the CRC. Fails with
/// InvalidArgument on truncation, an unexpected id, or a checksum
/// mismatch; CRC mismatches also count store/crc_failures.
Status ReadSection(BinaryReader* reader, uint32_t expected_id,
                   std::string* payload);

/// The retry policy every store IO path applies around transient errors
/// (fault sites firing, flaky reads/writes). Mutable so entry points can
/// honor a --max_retries flag; set it once at startup, before any store
/// traffic. Typed logical errors (NotFound, InvalidArgument) are never
/// retried. The schedule is the plain exponential one — no jitter Rng here,
/// so store retries never perturb the model's random streams.
RetryPolicy& DefaultIoRetryPolicy();

/// Reads a whole file into memory, retrying transient failures under
/// DefaultIoRetryPolicy. NotFound when the file cannot be opened, Internal
/// on a read error that survives the retries. Counts store/bytes_read.
/// Fault site: "store/read_file".
StatusOr<std::string> ReadFile(const std::string& path);

/// Crash-safe write: writes `data` to `path + ".tmp"`, fsyncs it, renames
/// over `path`, then fsyncs the parent directory. After a crash either the
/// old file or the complete new file is visible — never a prefix. Counts
/// store/bytes_written. Transient failures retry under
/// DefaultIoRetryPolicy; each attempt restarts from the temp write, so a
/// failed attempt never leaves a torn final file. Fault sites:
/// "store/write_file", "store/fsync", "store/rename".
Status WriteFileDurable(const std::string& path, const std::string& data);

/// Fsyncs a directory so a just-created/renamed entry survives a crash.
/// Best-effort no-op on platforms without directory fsync.
Status SyncDir(const std::string& path);

}  // namespace store
}  // namespace enld

#endif  // ENLD_STORE_IO_H_
