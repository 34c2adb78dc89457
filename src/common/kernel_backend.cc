#include "common/kernel_backend.h"

#include <cstdlib>
#include <cstring>

namespace enld {

namespace {

constexpr struct {
  const char* name;
  KernelIsa isa;
} kBackends[] = {{"generic", KernelIsa::kGeneric},
                 {"avx2", KernelIsa::kAvx2},
                 {"avx512", KernelIsa::kAvx512}};

/// The backend called `name`, or null for "auto" and unknown names.
const KernelIsa* FindBackend(const char* name) {
  for (const auto& backend : kBackends) {
    if (std::strcmp(name, backend.name) == 0) return &backend.isa;
  }
  return nullptr;
}

bool Available(KernelIsa isa) {
#ifdef ENLD_KERNEL_X86
  // The AVX2 GEMM tiles are FMA code (common/gemm.h).
  const bool avx2 = __builtin_cpu_supports("avx2") != 0 &&
                    __builtin_cpu_supports("fma") != 0;
  switch (isa) {
    case KernelIsa::kGeneric:
      return true;
    case KernelIsa::kAvx2:
      return avx2;
    case KernelIsa::kAvx512:  // Its distance kernels are the AVX2 ones.
      return avx2 && __builtin_cpu_supports("avx512f") != 0;
  }
  return false;
#else
  return isa == KernelIsa::kGeneric;
#endif
}

KernelIsa DetectIsa() {
  const char* env = std::getenv("ENLD_KERNEL");
  const KernelIsa* forced = env == nullptr ? nullptr : FindBackend(env);
  if (forced != nullptr && Available(*forced)) return *forced;
  if (Available(KernelIsa::kAvx512)) return KernelIsa::kAvx512;
  if (Available(KernelIsa::kAvx2)) return KernelIsa::kAvx2;
  return KernelIsa::kGeneric;
}

KernelIsa& Active() {
  static KernelIsa isa = DetectIsa();
  return isa;
}

}  // namespace

KernelIsa ActiveKernelIsa() { return Active(); }

const char* KernelBackend() {
  for (const auto& backend : kBackends) {
    if (backend.isa == Active()) return backend.name;
  }
  return "generic";
}

bool SetKernelBackend(const char* name) {
  if (name == nullptr) return false;
  if (std::strcmp(name, "auto") == 0) {
    Active() = DetectIsa();
    return true;
  }
  const KernelIsa* isa = FindBackend(name);
  if (isa == nullptr || !Available(*isa)) return false;
  Active() = *isa;
  return true;
}

}  // namespace enld
