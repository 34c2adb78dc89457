#ifndef ENLD_COMMON_DISTANCE_H_
#define ENLD_COMMON_DISTANCE_H_

#include <cstddef>
#include <vector>

namespace enld {

/// Batched squared-distance kernels over SoA point blocks — the shared
/// substrate under KD-tree leaf scans and brute-force KNN
/// (docs/ARCHITECTURE.md, "Distance kernel layer").
///
/// Points are stored dimension-major ("structure of arrays"): a block of
/// `count` points of dimension `dim` occupies `dim * stride` floats with
/// coordinate d of point i at `data[d * stride + i]`, where
/// `stride = PaddedLaneCount(count)`. Padding lanes are zero-filled so the
/// kernels can always read full 8-wide groups.
///
/// Bit-identity contract: for every point, every backend accumulates
/// `(p[d] - q[d])^2` over dimensions in index order into a single fp32
/// accumulator — exactly what the scalar reference `SquaredDistance` does.
/// The AVX2 path uses separate multiply and add (no FMA), and this
/// translation unit is compiled with `-ffp-contract=off` so the compiler
/// cannot contract the generic path either. Results are therefore bitwise
/// identical across backends, builds, and machines.

/// Lane width of the batched kernels: candidates are processed in groups
/// of 8 (one AVX2 register of floats, or one 8-wide unrolled accumulator
/// bank in the generic fallback).
inline constexpr size_t kDistanceLanes = 8;

/// Rounds `n` up to a multiple of kDistanceLanes (0 stays 0).
inline size_t PaddedLaneCount(size_t n) {
  return (n + kDistanceLanes - 1) / kDistanceLanes * kDistanceLanes;
}

/// Scalar reference: squared L2 distance between `a` and `b`, accumulated
/// over dimensions in index order. The batched kernels compute exactly
/// this value (bitwise) for each point.
float SquaredDistance(const float* a, const float* b, size_t dim);

/// Packs `count` rows of a row-major `src` matrix (`src_cols` floats per
/// row; row r starts at `src + r * src_cols`) into an SoA block at `dst`:
/// `dst[d * stride + i] = src[rows[i] * src_cols + d]`. `dst` must hold
/// `src_cols * stride` floats; padding lanes `[count, stride)` of every
/// dimension are zero-filled. Requires `stride >= PaddedLaneCount(count)`.
void PackSoaBlock(const float* src, size_t src_cols, const size_t* rows,
                  size_t count, size_t stride, float* dst);

/// Squared distances from `query` (length `dim`) to all `count` points of
/// an SoA block: `out[i] = SquaredDistance(point_i, query, dim)` bitwise.
/// Dispatches to the active backend (common/kernel_backend.h).
void BatchedSquaredDistances(const float* soa, size_t stride, size_t count,
                             size_t dim, const float* query, float* out);

}  // namespace enld

#endif  // ENLD_COMMON_DISTANCE_H_
