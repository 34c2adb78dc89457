#ifndef ENLD_STORE_IO_H_
#define ENLD_STORE_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

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
/// A kernel family under ENLD_KERNEL (common/kernel_backend.h): the
/// generic backend is slicing-by-8 tables; avx2 and avx512 fold 16-byte
/// blocks of an input of 64 bytes or more with carry-less multiplies when
/// the CPU has PCLMULQDQ and SSE4.1, and run the tables otherwise. Every
/// backend returns the same value.
uint32_t Crc32(const void* data, size_t size);
uint32_t Crc32(std::string_view data);

/// Little-endian append helpers.
void PutU8(std::string* out, uint8_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
void PutI32(std::string* out, int32_t v);
void PutF32(std::string* out, float v);
void PutF64(std::string* out, double v);
void PutBytes(std::string* out, const void* data, size_t size);

/// Bounds-checked little-endian cursor over an in-memory buffer, which
/// must outlive the reader. Read* returns false (leaving the output
/// untouched) once the buffer is exhausted — callers turn that into a
/// typed "truncated" Status.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

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
  std::string_view data_;
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

/// Why a reader rejected a store file's header or manifest, in the kinds
/// the scrubber reports as finding reasons.
enum class FormatFault { kBadMagic, kTruncated, kMismatch, kMalformed };

/// InvalidArgument(message), with `kind` stored in `*fault` when given.
Status RejectFormat(FormatFault kind, std::string message, FormatFault* fault);

/// One section envelope: its payload is a view into the walked buffer.
struct Section {
  uint32_t id = 0;
  std::string_view payload;
  bool crc_ok = false;
};

/// What WalkSections found. The walker reports and its callers judge: the
/// decoders reject any fault (Verify), the scrubber turns each into a
/// finding, and repair keeps the sections it needs.
struct SectionWalk {
  std::vector<Section> sections;  ///< read in full, ids 1, 2, ... in order
  /// The section the walk stopped at (0 when it read them all) and why:
  /// truncation, or an envelope with the wrong id.
  uint32_t fault_id = 0;
  FormatFault fault = FormatFault::kTruncated;
  std::string fault_detail;
  size_t trailing_bytes = 0;  ///< after the last section, when complete

  /// The decoders' verdict: OK when every section is present, its CRC
  /// intact, and nothing trails; else InvalidArgument for the first fault
  /// in file order. A CRC mismatch also counts store/crc_failures.
  Status Verify() const;
};

/// Walks the `count` envelopes with ids 1..count starting at `offset`,
/// checking each payload's CRC without copying it. Stops early only at a
/// structural fault: truncation or a wrong id.
SectionWalk WalkSections(std::string_view data, size_t offset,
                         uint32_t count);

/// Checks a whole file's bytes against the size and CRC32 its manifest
/// recorded: InvalidArgument naming `name` on a mismatch; a CRC mismatch
/// also counts store/crc_failures.
Status VerifyListedBytes(const std::string& name, std::string_view data,
                         uint64_t bytes, uint32_t crc32);

/// True when `bytes` holds exactly `count` values of `width` bytes: the
/// check a decoder makes before sizing a container from a count it read.
/// Immune to overflow of count * width.
inline bool HoldsExactly(std::string_view bytes, uint64_t count,
                         size_t width) {
  return bytes.size() % width == 0 && bytes.size() / width == count;
}

/// The retry policy every store IO path applies around transient errors
/// (fault sites firing, flaky reads/writes). Mutable so entry points can
/// honor a --max_retries flag; set it once at startup, before any store
/// traffic. Typed logical errors (NotFound, InvalidArgument) are never
/// retried. The schedule is the plain exponential one — no jitter Rng here,
/// so store retries never perturb the model's random streams.
RetryPolicy& DefaultIoRetryPolicy();

/// Reads a whole file into memory with one read into a buffer of its
/// size, retrying transient failures under
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
