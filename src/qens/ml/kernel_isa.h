#ifndef QENS_ML_KERNEL_ISA_H_
#define QENS_ML_KERNEL_ISA_H_

/// \file kernel_isa.h
/// Internal: which instruction set the paper NN's training kernels run on.
///
/// The hidden-layer sweep (HiddenSweepMseInto, HiddenSweepPredictInto in
/// dense_layer.cpp) and the Adam update (optimizer.cpp) are each compiled
/// twice from one body: once for the baseline x86-64 ISA (SSE2) and once
/// inside a `target("avx2")` function, which is also `flatten` so that the
/// whole body is inlined into it and vectorised with ymm registers. The
/// AVX2 copy runs when the CPU has AVX2. Both copies perform the same IEEE
/// operations in the same order for every element — no FMA (AVX2 does not
/// imply it, and nothing enables it), no reassociation, the same
/// correctly-rounded division and square root — so they give the same bits.
/// ml_training_pin_test runs every case on both copies through
/// ScopedKernelIsa.
///
/// The sweep's forward and head run rows as the lanes of a GCC vector
/// type, as wide as one register of the copy's instruction set: two
/// doubles (xmm) in the baseline copy, four (ymm) in the AVX2 copy. A
/// four-lane type in the baseline copy would be split into much slower
/// SSE2 code. The lane count only sets how many rows run side by side;
/// each row's operations are the same.
///
/// Only GCC on x86-64 builds the AVX2 copies; elsewhere every call takes
/// the baseline one.

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define QENS_ML_AVX2_KERNELS 1
#else
#define QENS_ML_AVX2_KERNELS 0
#endif

namespace qens::ml::internal {

enum class KernelIsa { kBaseline, kAvx2 };

/// True when this build has the AVX2 copies and the CPU supports AVX2
/// (detected once per process).
bool Avx2KernelsAvailable();

/// The copy the kernels take on this call: kAvx2 when available, else
/// kBaseline, unless a ScopedKernelIsa is alive.
KernelIsa ActiveKernelIsa();

/// Test-only override: while alive, every kernel call in the process takes
/// `isa`; the previous choice comes back on destruction. Not for use while
/// other threads train. Forcing kAvx2 where Avx2KernelsAvailable() is
/// false aborts.
class ScopedKernelIsa {
 public:
  explicit ScopedKernelIsa(KernelIsa isa);
  ~ScopedKernelIsa();
  ScopedKernelIsa(const ScopedKernelIsa&) = delete;
  ScopedKernelIsa& operator=(const ScopedKernelIsa&) = delete;

 private:
  int previous_;
};

}  // namespace qens::ml::internal

#endif  // QENS_ML_KERNEL_ISA_H_
