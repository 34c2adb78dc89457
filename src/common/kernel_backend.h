#ifndef ENLD_COMMON_KERNEL_BACKEND_H_
#define ENLD_COMMON_KERNEL_BACKEND_H_

#if defined(__x86_64__) || defined(__i386__)
#define ENLD_KERNEL_X86 1
#endif

namespace enld {

/// The one runtime switch behind every SIMD kernel family: the batched
/// distance kernels (common/distance.h), the GEMM kernel under the matrix
/// products (common/gemm.h), the row kernels around them
/// (common/row_kernels.h) and the store's CRC-32 (store/io.h). Every
/// backend of every family is bitwise identical to its scalar reference,
/// so the switch changes speed only (docs/ARCHITECTURE.md §6). The
/// distance kernels have no AVX-512 path: under kAvx512 they run their
/// AVX2 one. The CRC-32 runs one 128-bit carry-less-multiply fold under
/// both kAvx2 and kAvx512, where the CPU has PCLMULQDQ.
enum class KernelIsa { kGeneric, kAvx2, kAvx512 };

/// Backend the kernels dispatch to. The first call detects it: the
/// ENLD_KERNEL env var's backend ("generic", "avx2" or "avx512") when this
/// CPU has it, else the widest the CPU supports (AVX-512, AVX2, generic).
/// avx2 also needs FMA, for its GEMM tiles; avx512 needs all avx2 does.
KernelIsa ActiveKernelIsa();

/// Name of the active backend: "generic", "avx2" or "avx512".
const char* KernelBackend();

/// Forces a backend ("generic", "avx2", "avx512", or "auto" to re-run
/// detection, honouring ENLD_KERNEL). Returns false — leaving the current
/// backend unchanged — if the request is unknown or the backend is
/// unavailable on this CPU. Test/bench seam; not thread-safe against
/// in-flight kernels.
bool SetKernelBackend(const char* name);

/// Four floats as one value (GCC/Clang vector extension), the unit of the
/// generic backends: one SSE or NEON register. Each arithmetic operation
/// applies lane by lane, so a lane's fp32 sequence is the scalar one.
typedef float Lanes4 __attribute__((vector_size(4 * sizeof(float))));

}  // namespace enld

#endif  // ENLD_COMMON_KERNEL_BACKEND_H_
