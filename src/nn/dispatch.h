#ifndef LTE_NN_DISPATCH_H_
#define LTE_NN_DISPATCH_H_

// One rule for the hot loops that have an AVX2 body. Each body is written
// once as an LTE_ALWAYS_INLINE function and instantiated twice: inline in a
// plain caller (SSE2, the x86-64 baseline, or generic vectors elsewhere) and
// inline in an LTE_TARGET_AVX2 wrapper. The caller picks one per layer call
// or per training step with UseAvx2Bodies(), never per inner loop. Both
// bodies run each output's scalar chain in the same order with separate
// multiply and add (no FMA: the target is "avx2" alone, and the library
// builds with -ffp-contract=off), so which one runs changes no bit.
//
// A body must pass vectors only through pointers or references: a 32-byte
// vector argument changes the calling convention between the two targets.

#define LTE_ALWAYS_INLINE inline __attribute__((always_inline))

#if defined(__x86_64__) || defined(__i386__)
#define LTE_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define LTE_TARGET_AVX2
#endif

namespace lte::nn {

/// The vector width, in doubles, of the bodies this host runs: 4 when the
/// CPU has AVX2 (x86 only, detected once at first use), else 2.
int KernelWidth();

/// True when the dispatching callers run their AVX2 bodies: KernelWidth()
/// is 4 and no ScopedKernelWidth narrows it.
bool UseAvx2Bodies();

/// Runs the process's dispatched bodies at `width` (2, or 4 where
/// KernelWidth() is 4) while the scope lives, so that one host tests both
/// bodies. For tests: the bodies are bit-identical, so a scope changes no
/// result, only which instructions compute it. Scopes do not nest.
class ScopedKernelWidth {
 public:
  explicit ScopedKernelWidth(int width);
  ~ScopedKernelWidth();
  ScopedKernelWidth(const ScopedKernelWidth&) = delete;
  ScopedKernelWidth& operator=(const ScopedKernelWidth&) = delete;
};

}  // namespace lte::nn

#endif  // LTE_NN_DISPATCH_H_
