#include "src/common/cpu.h"

namespace pane {

bool CpuHasAvx2() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  // Resolved once; __builtin_cpu_supports reads cpuid through a cached
  // libgcc probe, but keep the static anyway so the choice is a plain load.
  static const bool avx2 = __builtin_cpu_supports("avx2");
  return avx2;
#else
  return false;
#endif
}

}  // namespace pane
