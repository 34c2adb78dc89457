#ifndef ENLD_NN_SERIALIZATION_H_
#define ENLD_NN_SERIALIZATION_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "nn/mlp.h"

namespace enld {

/// Architecture + flattened weights of one model file — the weight-level
/// view used by the snapshot store, which reconstructs the MlpModel
/// itself.
struct ModelFile {
  std::vector<size_t> dims;
  std::vector<float> weights;
};

/// Writes the model architecture and weights to a binary file. The format
/// ("ENLDMDL2" magic) carries an explicit byte-order tag:
/// payloads are written in host order and the tag records what that was,
/// so a file from a foreign-endian machine is rejected with
/// InvalidArgument instead of being silently misread. Overwrites an
/// existing file. Fails with NotFound when the file cannot be opened and
/// Internal when a write or the final close fails (e.g. a full disk).
Status SaveModel(const MlpModel& model, const std::string& path);
Status SaveModelFile(const ModelFile& file, const std::string& path);

/// The exact bytes SaveModelFile writes (no I/O), for callers that write
/// them through their own durable path, like the snapshot store.
std::string EncodeModelFile(const ModelFile& file);

/// The inverse of EncodeModelFile. Fails with InvalidArgument on any
/// format problem — a wrong magic (including the tag-less "ENLDMDL1"), a
/// byte-order tag that does not match this machine, layer dimensions out
/// of range, or a weight count the bytes do not hold exactly.
StatusOr<ModelFile> DecodeModelFile(std::string_view data);

/// Reads a model written by SaveModel / SaveModelFile: one read of the
/// file plus DecodeModelFile. NotFound when the file cannot be opened.
StatusOr<std::unique_ptr<MlpModel>> LoadModel(const std::string& path);
StatusOr<ModelFile> LoadModelFile(const std::string& path);

/// Builds an MlpModel from a validated ModelFile (dims/weight-count
/// consistency is re-checked; InvalidArgument on mismatch).
StatusOr<std::unique_ptr<MlpModel>> ModelFromFile(const ModelFile& file);

}  // namespace enld

#endif  // ENLD_NN_SERIALIZATION_H_
