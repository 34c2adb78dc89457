#include "common/kernel_backend.h"

#include <cstdlib>
#include <cstring>

namespace enld {

namespace {

bool Avx2Available() {
#ifdef ENLD_KERNEL_X86
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

KernelIsa DetectIsa() {
  const char* env = std::getenv("ENLD_KERNEL");
  if (env != nullptr && std::strcmp(env, "generic") == 0) {
    return KernelIsa::kGeneric;
  }
  return Avx2Available() ? KernelIsa::kAvx2 : KernelIsa::kGeneric;
}

KernelIsa& Active() {
  static KernelIsa isa = DetectIsa();
  return isa;
}

}  // namespace

KernelIsa ActiveKernelIsa() { return Active(); }

const char* KernelBackend() {
  return Active() == KernelIsa::kAvx2 ? "avx2" : "generic";
}

bool SetKernelBackend(const char* name) {
  if (name == nullptr) return false;
  if (std::strcmp(name, "generic") == 0) {
    Active() = KernelIsa::kGeneric;
    return true;
  }
  if (std::strcmp(name, "avx2") == 0) {
    if (!Avx2Available()) return false;
    Active() = KernelIsa::kAvx2;
    return true;
  }
  if (std::strcmp(name, "auto") == 0) {
    Active() = DetectIsa();
    return true;
  }
  return false;
}

}  // namespace enld
