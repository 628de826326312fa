#include "qens/ml/kernel_isa.h"

#include <atomic>
#include <cstdlib>

namespace qens::ml::internal {
namespace {

constexpr int kNotForced = -1;

/// The ScopedKernelIsa override as a KernelIsa value, or kNotForced.
std::atomic<int> g_forced{kNotForced};

}  // namespace

bool Avx2KernelsAvailable() {
#if QENS_ML_AVX2_KERNELS
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return available;
#else
  return false;
#endif
}

KernelIsa ActiveKernelIsa() {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced != kNotForced) return static_cast<KernelIsa>(forced);
  return Avx2KernelsAvailable() ? KernelIsa::kAvx2 : KernelIsa::kBaseline;
}

ScopedKernelIsa::ScopedKernelIsa(KernelIsa isa)
    : previous_(g_forced.load(std::memory_order_relaxed)) {
  if (isa == KernelIsa::kAvx2 && !Avx2KernelsAvailable()) std::abort();
  g_forced.store(static_cast<int>(isa), std::memory_order_relaxed);
}

ScopedKernelIsa::~ScopedKernelIsa() {
  g_forced.store(previous_, std::memory_order_relaxed);
}

}  // namespace qens::ml::internal
