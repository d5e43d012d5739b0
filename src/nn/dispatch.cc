#include "nn/dispatch.h"

#include <atomic>

#include "common/check.h"

namespace lte::nn {
namespace {

// 0, or the width a ScopedKernelWidth forces.
std::atomic<int> forced_width{0};

int DetectWidth() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") ? 4 : 2;
#else
  return 2;
#endif
}

}  // namespace

int KernelWidth() {
  static const int width = DetectWidth();
  return width;
}

bool UseAvx2Bodies() {
  const int forced = forced_width.load(std::memory_order_relaxed);
  return (forced != 0 ? forced : KernelWidth()) == 4;
}

ScopedKernelWidth::ScopedKernelWidth(int width) {
  LTE_CHECK(width == 2 || (width == 4 && KernelWidth() == 4));
  LTE_CHECK_EQ(forced_width.exchange(width), 0);
}

ScopedKernelWidth::~ScopedKernelWidth() { forced_width.store(0); }

}  // namespace lte::nn
