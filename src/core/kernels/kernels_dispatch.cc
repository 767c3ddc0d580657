// Runtime backend selection: cpuid (via __builtin_cpu_supports) picks the
// best compiled-in backend once, FAIRKM_FORCE_SCALAR / SetActiveBackend
// override it. The decision is cached in an atomic so concurrent callers
// (silhouette probe workers, serving readers) read it without a lock.

#include "core/kernels/kernels.h"

#include <atomic>
#include <cstdlib>

namespace fairkm {
namespace core {
namespace kernels {

#if defined(FAIRKM_HAVE_AVX2)
const Backend& Avx2BackendImpl();  // Defined in kernels_avx2.cc.

const Backend* Avx2Backend() {
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return supported ? &Avx2BackendImpl() : nullptr;
}
#else
const Backend* Avx2Backend() { return nullptr; }
#endif

bool ScalarForcedByEnv() {
  const char* env = std::getenv("FAIRKM_FORCE_SCALAR");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

const Backend& DispatchBackend(bool force_scalar) {
  if (!force_scalar) {
    if (const Backend* avx2 = Avx2Backend()) return *avx2;
  }
  return ScalarBackend();
}

namespace {
std::atomic<const Backend*> g_active{nullptr};
}  // namespace

const Backend& ActiveBackend() {
  const Backend* backend = g_active.load(std::memory_order_acquire);
  if (backend == nullptr) {
    backend = &DispatchBackend(ScalarForcedByEnv());
    g_active.store(backend, std::memory_order_release);
  }
  return *backend;
}

void SetActiveBackend(const Backend* backend) {
  g_active.store(backend, std::memory_order_release);
}

}  // namespace kernels
}  // namespace core
}  // namespace fairkm
