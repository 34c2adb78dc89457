#include "nn/serialization.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <vector>

namespace enld {

namespace {

/// A host-order tag follows the magic, so a reader on a machine with
/// different endianness sees the byte-swapped value and rejects the file
/// instead of loading garbage weights.
constexpr char kMagic[8] = {'E', 'N', 'L', 'D', 'M', 'D', 'L', '2'};
constexpr uint32_t kByteOrderTag = 0x01020304u;

/// RAII file handle.
class File {
 public:
  File(const std::string& path, const char* mode)
      : handle_(std::fopen(path.c_str(), mode)) {}
  ~File() { Close(); }
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  FILE* get() const { return handle_; }
  bool ok() const { return handle_ != nullptr; }
  /// Closes the handle; false when the close, which flushes buffered
  /// writes, failed.
  bool Close() {
    FILE* handle = handle_;
    handle_ = nullptr;
    return handle == nullptr || std::fclose(handle) == 0;
  }

 private:
  FILE* handle_;
};

Status ValidateDimsAndWeights(const std::vector<size_t>& dims,
                              size_t weight_count) {
  if (dims.size() < 3 || dims.size() > 64) {
    return Status::InvalidArgument("corrupt layer-dimension header");
  }
  uint64_t expected = 0;
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    if (dims[i] == 0 || dims[i] > (1u << 24)) {
      return Status::InvalidArgument("corrupt layer dimension");
    }
    expected += dims[i] * dims[i + 1] + dims[i + 1];
  }
  if (dims.back() == 0 || dims.back() > (1u << 24)) {
    return Status::InvalidArgument("corrupt layer dimension");
  }
  if (expected != weight_count) {
    return Status::InvalidArgument("weight count does not match layers");
  }
  return Status::OK();
}

/// Appends the host-order bytes of `value`.
template <typename T>
void AppendRaw(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

}  // namespace

std::string EncodeModelFile(const ModelFile& file) {
  std::string out;
  out.reserve(sizeof(kMagic) + sizeof(kByteOrderTag) +
              (file.dims.size() + 2) * sizeof(uint64_t) +
              file.weights.size() * sizeof(float));
  out.append(kMagic, sizeof(kMagic));
  AppendRaw(&out, kByteOrderTag);
  AppendRaw(&out, static_cast<uint64_t>(file.dims.size()));
  for (size_t d : file.dims) AppendRaw(&out, static_cast<uint64_t>(d));
  AppendRaw(&out, static_cast<uint64_t>(file.weights.size()));
  out.append(reinterpret_cast<const char*>(file.weights.data()),
             file.weights.size() * sizeof(float));
  return out;
}

Status SaveModelFile(const ModelFile& file, const std::string& path) {
  const std::string bytes = EncodeModelFile(file);
  File out(path, "wb");
  if (!out.ok()) {
    return Status::NotFound("cannot open for writing: " + path);
  }
  const bool written =
      std::fwrite(bytes.data(), 1, bytes.size(), out.get()) == bytes.size();
  // The close flushes the stdio buffer, so a full disk often surfaces only
  // there; it must be checked even when the write succeeded.
  const bool closed = out.Close();
  if (!written || !closed) {
    return Status::Internal("cannot write model file: " + path);
  }
  return Status::OK();
}

Status SaveModel(const MlpModel& model, const std::string& path) {
  ModelFile file;
  file.dims = model.layer_dims();
  file.weights = model.GetWeights();
  return SaveModelFile(file, path);
}

StatusOr<ModelFile> DecodeModelFile(std::string_view data) {
  if (data.substr(0, sizeof(kMagic)) !=
      std::string_view(kMagic, sizeof(kMagic))) {
    return Status::InvalidArgument("not an ENLD model file");
  }
  // Host-order reads, the mirror of AppendRaw.
  data.remove_prefix(sizeof(kMagic));
  auto read = [&data](void* out, size_t size) {
    if (data.size() < size) return false;
    std::memcpy(out, data.data(), size);
    data.remove_prefix(size);
    return true;
  };
  uint32_t tag = 0;
  if (!read(&tag, sizeof(tag))) {
    return Status::InvalidArgument("truncated byte-order tag");
  }
  if (tag != kByteOrderTag) {
    return Status::InvalidArgument(
        "model file byte order does not match this machine "
        "(written on a foreign-endian host?)");
  }
  uint64_t num_dims = 0;
  if (!read(&num_dims, sizeof(num_dims)) || num_dims < 3 || num_dims > 64) {
    return Status::InvalidArgument("corrupt layer-dimension header");
  }
  ModelFile out;
  out.dims.resize(num_dims);
  for (auto& d : out.dims) {
    uint64_t v = 0;
    if (!read(&v, sizeof(v)) || v == 0 || v > (1u << 24)) {
      return Status::InvalidArgument("corrupt layer dimension");
    }
    d = static_cast<size_t>(v);
  }
  uint64_t count = 0;
  if (!read(&count, sizeof(count))) {
    return Status::InvalidArgument("missing weight count");
  }
  ENLD_RETURN_IF_ERROR(ValidateDimsAndWeights(out.dims, count));
  if (data.size() != count * sizeof(float)) {
    return Status::InvalidArgument(
        "weight section holds " + std::to_string(data.size()) +
        " bytes, the layers need " + std::to_string(count) + " floats");
  }
  out.weights.resize(count);
  read(out.weights.data(), data.size());
  return out;
}

StatusOr<ModelFile> LoadModelFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open for reading: " + path);
  const std::string data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  if (in.bad()) return Status::Internal("read error: " + path);
  StatusOr<ModelFile> model = DecodeModelFile(data);
  if (!model.ok()) {
    return Status(model.status().code(),
                  model.status().message() + " [" + path + "]");
  }
  return model;
}

StatusOr<std::unique_ptr<MlpModel>> ModelFromFile(const ModelFile& file) {
  ENLD_RETURN_IF_ERROR(
      ValidateDimsAndWeights(file.dims, file.weights.size()));
  return std::make_unique<MlpModel>(file.dims, file.weights);
}

StatusOr<std::unique_ptr<MlpModel>> LoadModel(const std::string& path) {
  StatusOr<ModelFile> file = LoadModelFile(path);
  if (!file.ok()) return file.status();
  return ModelFromFile(file.value());
}

}  // namespace enld
