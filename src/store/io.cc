#include "store/io.h"

#include <cstdio>
#include <cstring>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#define ENLD_STORE_POSIX 1
#endif

#include "common/faults.h"
#include "common/kernel_backend.h"
#include "common/retry.h"
#include "common/telemetry/metrics.h"

#ifdef ENLD_KERNEL_X86
#include <immintrin.h>
#endif

namespace enld {
namespace store {

namespace {

telemetry::Counter* BytesReadCounter() {
  static telemetry::Counter* counter =
      telemetry::MetricsRegistry::Global().GetCounter("store/bytes_read");
  return counter;
}

telemetry::Counter* BytesWrittenCounter() {
  static telemetry::Counter* counter =
      telemetry::MetricsRegistry::Global().GetCounter("store/bytes_written");
  return counter;
}

void CountCrcFailure() {
  static telemetry::Counter* counter =
      telemetry::MetricsRegistry::Global().GetCounter("store/crc_failures");
  counter->Increment();
}

/// Slicing-by-8 tables, built on first use. Row 0 is the standard
/// reflected CRC-32 table; row k advances a byte's contribution through k
/// further zero bytes, so eight input bytes fold into the CRC with eight
/// independent lookups instead of a serial chain of eight.
using Crc32Tables = uint32_t[8][256];

const Crc32Tables& Crc32Table() {
  static Crc32Tables table;
  static const bool initialized = [] {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
      }
      table[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        const uint32_t prev = table[k - 1][i];
        table[k][i] = (prev >> 8) ^ table[0][prev & 0xFFu];
      }
    }
    return true;
  }();
  (void)initialized;
  return table;
}

/// The four bytes at `p` as a little-endian word, on any host.
uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

/// Folds `size` bytes into the running (pre-inverted) CRC `crc` through
/// the slicing-by-8 tables: the generic backend, and the tail of the
/// carry-less-multiply one.
uint32_t Crc32Slicing8(uint32_t crc, const unsigned char* bytes, size_t size) {
  const Crc32Tables& table = Crc32Table();
  for (; size >= 8; bytes += 8, size -= 8) {
    const uint32_t lo = LoadLe32(bytes) ^ crc;
    const uint32_t hi = LoadLe32(bytes + 4);
    crc = table[7][lo & 0xFFu] ^ table[6][(lo >> 8) & 0xFFu] ^
          table[5][(lo >> 16) & 0xFFu] ^ table[4][lo >> 24] ^
          table[3][hi & 0xFFu] ^ table[2][(hi >> 8) & 0xFFu] ^
          table[1][(hi >> 16) & 0xFFu] ^ table[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    crc = (crc >> 8) ^ table[0][(crc ^ *bytes) & 0xFFu];
  }
  return crc;
}

#ifdef ENLD_KERNEL_X86
/// The folding constants of Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), for the
/// reflected polynomial 0xEDB88320 (the ones zlib-ng, Chromium and Linux's
/// crc32-pclmul use): k1/k2 fold a lane 512 bits ahead, k3/k4 128 bits,
/// k5 reduces 64 bits to 32, and P'/mu are the Barrett pair.
constexpr uint64_t kFold512[2] = {0x154442bd4, 0x1c6e41596};  // k1, k2
constexpr uint64_t kFold128[2] = {0x1751997d0, 0x0ccaa009e};  // k3, k4
constexpr uint64_t kFold64 = 0x163cd6124;                      // k5
constexpr uint64_t kBarrett[2] = {0x1db710641, 0x1f7011641};  // P', mu

/// x * k.lo xor x * k.hi, each product a carry-less 64 x 64 multiply of
/// the matching half of x: one lane moved 128 bits (k3/k4) or 512 bits
/// (k1/k2) further along the message.
__attribute__((target("pclmul,sse4.1"), always_inline)) inline __m128i Fold(
    __m128i x, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

/// Folds `size` bytes (a multiple of 16, at least 64) into the running
/// CRC `crc` with PCLMULQDQ and returns the new running CRC: four 128-bit
/// lanes per 64-byte block, then the lanes into one, then the remaining
/// 16-byte blocks, then 128 -> 64 bits and a Barrett reduction to 32.
__attribute__((target("pclmul,sse4.1"))) uint32_t Crc32Clmul(
    uint32_t crc, const unsigned char* bytes, size_t size) {
  auto load = [](const unsigned char* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  };
  __m128i x1 = _mm_xor_si128(load(bytes), _mm_cvtsi32_si128(
                                              static_cast<int>(crc)));
  __m128i x2 = load(bytes + 16);
  __m128i x3 = load(bytes + 32);
  __m128i x4 = load(bytes + 48);
  bytes += 64;
  size -= 64;

  __m128i k = _mm_set_epi64x(static_cast<long long>(kFold512[1]),
                             static_cast<long long>(kFold512[0]));
  for (; size >= 64; bytes += 64, size -= 64) {
    x1 = _mm_xor_si128(Fold(x1, k), load(bytes));
    x2 = _mm_xor_si128(Fold(x2, k), load(bytes + 16));
    x3 = _mm_xor_si128(Fold(x3, k), load(bytes + 32));
    x4 = _mm_xor_si128(Fold(x4, k), load(bytes + 48));
  }

  k = _mm_set_epi64x(static_cast<long long>(kFold128[1]),
                     static_cast<long long>(kFold128[0]));
  x1 = _mm_xor_si128(Fold(x1, k), x2);
  x1 = _mm_xor_si128(Fold(x1, k), x3);
  x1 = _mm_xor_si128(Fold(x1, k), x4);
  for (; size >= 16; bytes += 16, size -= 16) {
    x1 = _mm_xor_si128(Fold(x1, k), load(bytes));
  }

  // 128 -> 64 bits: the low half times k4 onto the high half, then the
  // low 32 bits of that times k5 onto the rest.
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k, 0x10));
  k = _mm_set_epi64x(0, static_cast<long long>(kFold64));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k, 0x00));

  // Barrett reduction to 32 bits: q = floor(x * mu), crc = x xor q * P'.
  k = _mm_set_epi64x(static_cast<long long>(kBarrett[1]),
                     static_cast<long long>(kBarrett[0]));
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), k, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, q), 1));
}

/// True when the CPU runs Crc32Clmul (CPUID's PCLMULQDQ and SSE4.1 bits).
bool ClmulAvailable() {
  static const bool available = __builtin_cpu_supports("pclmul") != 0 &&
                                __builtin_cpu_supports("sse4.1") != 0;
  return available;
}
#endif

class File {
 public:
  File(const std::string& path, const char* mode)
      : handle_(std::fopen(path.c_str(), mode)) {}
  ~File() { Close(); }
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  FILE* get() const { return handle_; }
  bool ok() const { return handle_ != nullptr; }
  void Close() {
    if (handle_ != nullptr) std::fclose(handle_);
    handle_ = nullptr;
  }

 private:
  FILE* handle_;
};

}  // namespace

uint32_t Crc32(const void* data, size_t size) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = 0xFFFFFFFFu;
#ifdef ENLD_KERNEL_X86
  if (size >= 64 && ActiveKernelIsa() != KernelIsa::kGeneric &&
      ClmulAvailable()) {
    const size_t folded = size & ~size_t{15};
    crc = Crc32Clmul(crc, bytes, folded);
    bytes += folded;
    size -= folded;
  }
#endif
  return Crc32Slicing8(crc, bytes, size) ^ 0xFFFFFFFFu;
}

uint32_t Crc32(std::string_view data) {
  return Crc32(data.data(), data.size());
}

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void PutI32(std::string* out, int32_t v) {
  PutU32(out, static_cast<uint32_t>(v));
}

void PutF32(std::string* out, float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU32(out, bits);
}

void PutF64(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutBytes(std::string* out, const void* data, size_t size) {
  out->append(static_cast<const char*>(data), size);
}

bool BinaryReader::ReadU8(uint8_t* v) {
  if (remaining() < 1) return false;
  *v = static_cast<uint8_t>(data_[offset_++]);
  return true;
}

bool BinaryReader::ReadU32(uint32_t* v) {
  if (remaining() < 4) return false;
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(
               static_cast<unsigned char>(data_[offset_ + i]))
           << (8 * i);
  }
  offset_ += 4;
  *v = out;
  return true;
}

bool BinaryReader::ReadU64(uint64_t* v) {
  if (remaining() < 8) return false;
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(
               static_cast<unsigned char>(data_[offset_ + i]))
           << (8 * i);
  }
  offset_ += 8;
  *v = out;
  return true;
}

bool BinaryReader::ReadI32(int32_t* v) {
  uint32_t bits = 0;
  if (!ReadU32(&bits)) return false;
  *v = static_cast<int32_t>(bits);
  return true;
}

bool BinaryReader::ReadF32(float* v) {
  uint32_t bits = 0;
  if (!ReadU32(&bits)) return false;
  std::memcpy(v, &bits, sizeof(*v));
  return true;
}

bool BinaryReader::ReadF64(double* v) {
  uint64_t bits = 0;
  if (!ReadU64(&bits)) return false;
  std::memcpy(v, &bits, sizeof(*v));
  return true;
}

bool BinaryReader::ReadBytes(size_t size, std::string* out) {
  if (remaining() < size) return false;
  out->assign(data_.substr(offset_, size));
  offset_ += size;
  return true;
}

bool BinaryReader::Skip(size_t size) {
  if (remaining() < size) return false;
  offset_ += size;
  return true;
}

void PutSection(std::string* out, uint32_t id, const std::string& payload) {
  const size_t section = BeginSection(out, id);
  out->append(payload);
  FinishSection(out, section);
}

size_t BeginSection(std::string* out, uint32_t id) {
  const size_t section = out->size();
  PutU32(out, id);
  PutU64(out, 0);  // payload length, set by FinishSection
  PutU32(out, 0);  // payload CRC32, likewise
  return section;
}

void FinishSection(std::string* out, size_t section) {
  const size_t payload = section + 4 + 8 + 4;  // past id, length, CRC
  const uint64_t length = out->size() - payload;
  std::string fields;
  PutU64(&fields, length);
  PutU32(&fields, Crc32(out->data() + payload, length));
  out->replace(section + 4, fields.size(), fields);
}

Status RejectFormat(FormatFault kind, std::string message,
                    FormatFault* fault) {
  if (fault != nullptr) *fault = kind;
  return Status::InvalidArgument(std::move(message));
}

SectionWalk WalkSections(std::string_view data, size_t offset,
                         uint32_t count) {
  SectionWalk walk;
  BinaryReader reader(data);
  reader.Skip(offset);
  for (uint32_t expected = 1; expected <= count; ++expected) {
    uint32_t id = 0, crc = 0;
    uint64_t length = 0;
    walk.fault_id = expected;
    if (!reader.ReadU32(&id) || !reader.ReadU64(&length) ||
        !reader.ReadU32(&crc)) {
      walk.fault = FormatFault::kTruncated;
      walk.fault_detail =
          "file ends before section " + std::to_string(expected);
      return walk;
    }
    if (id != expected) {
      walk.fault = FormatFault::kMalformed;
      walk.fault_detail = "section id " + std::to_string(id) + " where " +
                          std::to_string(expected) + " expected";
      return walk;
    }
    if (length > reader.remaining()) {
      walk.fault = FormatFault::kTruncated;
      walk.fault_detail =
          "section " + std::to_string(id) + " payload truncated";
      return walk;
    }
    const std::string_view payload = data.substr(reader.offset(), length);
    reader.Skip(length);
    walk.sections.push_back({id, payload, Crc32(payload) == crc});
  }
  walk.fault_id = 0;
  walk.trailing_bytes = reader.remaining();
  return walk;
}

Status SectionWalk::Verify() const {
  for (const Section& section : sections) {
    if (!section.crc_ok) {
      CountCrcFailure();
      return Status::InvalidArgument("CRC mismatch in section " +
                                     std::to_string(section.id));
    }
  }
  if (fault_id != 0) return Status::InvalidArgument(fault_detail);
  if (trailing_bytes != 0) {
    return Status::InvalidArgument(std::to_string(trailing_bytes) +
                                   " trailing bytes after last section");
  }
  return Status::OK();
}

Status VerifyListedBytes(const std::string& name, std::string_view data,
                         uint64_t bytes, uint32_t crc32) {
  if (data.size() != bytes) {
    return Status::InvalidArgument(
        name + " is " + std::to_string(data.size()) +
        " bytes, its manifest says " + std::to_string(bytes) +
        " (truncated?)");
  }
  if (Crc32(data) != crc32) {
    CountCrcFailure();
    return Status::InvalidArgument(name +
                                   " CRC32 does not match its manifest");
  }
  return Status::OK();
}

namespace {

// One read attempt; ReadFile wraps this in the retry policy.
StatusOr<std::string> ReadFileOnce(const std::string& path) {
  ENLD_RETURN_IF_ERROR(faults::Check("store/read_file"));
  File file(path, "rb");
  if (!file.ok()) {
    return Status::NotFound("cannot open for reading: " + path);
  }
  // One read into a buffer of the file's size, then on to EOF in case the
  // file grew since the fstat.
  size_t expected = 0;
#ifdef ENLD_STORE_POSIX
  struct stat info;
  if (::fstat(::fileno(file.get()), &info) == 0 && info.st_size > 0) {
    expected = static_cast<size_t>(info.st_size);
  }
#endif
  std::string data(expected, '\0');
  data.resize(std::fread(data.data(), 1, data.size(), file.get()));
  char buffer[1 << 16];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file.get())) > 0) {
    data.append(buffer, got);
  }
  if (std::ferror(file.get())) {
    return Status::Internal("read error: " + path);
  }
  BytesReadCounter()->Add(data.size());
  return data;
}

// One durable-write attempt. Every attempt restarts from the temp write,
// so a fault at any step leaves only a stray `.tmp` behind, never a torn
// file under the final name.
Status WriteFileDurableOnce(const std::string& path, const std::string& data) {
  const std::string tmp = path + ".tmp";
  {
    ENLD_RETURN_IF_ERROR(faults::Check("store/write_file"));
    File file(tmp, "wb");
    if (!file.ok()) {
      return Status::NotFound("cannot open for writing: " + tmp);
    }
    if (!data.empty() &&
        std::fwrite(data.data(), 1, data.size(), file.get()) !=
            data.size()) {
      return Status::Internal("short write: " + tmp);
    }
    if (std::fflush(file.get()) != 0) {
      return Status::Internal("flush failed: " + tmp);
    }
    ENLD_RETURN_IF_ERROR(faults::Check("store/fsync"));
#ifdef ENLD_STORE_POSIX
    if (::fsync(::fileno(file.get())) != 0) {
      return Status::Internal("fsync failed: " + tmp);
    }
#endif
  }
  if (Status fault = faults::Check("store/rename"); !fault.ok()) {
    std::remove(tmp.c_str());
    return fault;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("rename failed: " + tmp + " -> " + path);
  }
  // Parent directory must persist the new entry too.
  const size_t slash = path.find_last_of('/');
  const Status dir_sync =
      SyncDir(slash == std::string::npos ? "." : path.substr(0, slash));
  if (!dir_sync.ok()) return dir_sync;
  BytesWrittenCounter()->Add(data.size());
  return Status::OK();
}

}  // namespace

RetryPolicy& DefaultIoRetryPolicy() {
  static RetryPolicy* policy = new RetryPolicy();
  return *policy;
}

StatusOr<std::string> ReadFile(const std::string& path) {
  return RetryWithBackoffOr<std::string>(
      DefaultIoRetryPolicy(), "read " + path,
      [&]() { return ReadFileOnce(path); });
}

Status WriteFileDurable(const std::string& path, const std::string& data) {
  return RetryWithBackoff(DefaultIoRetryPolicy(), "write " + path,
                          [&]() { return WriteFileDurableOnce(path, data); });
}

Status SyncDir(const std::string& path) {
#ifdef ENLD_STORE_POSIX
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("cannot open directory: " + path);
  }
  // Some filesystems refuse fsync on directories; treat that as done.
  ::fsync(fd);
  ::close(fd);
#else
  (void)path;
#endif
  return Status::OK();
}

}  // namespace store
}  // namespace enld
