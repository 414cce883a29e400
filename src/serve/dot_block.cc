#include "src/serve/dot_block.h"

#include <cstdlib>

#include "src/common/cpu.h"
#include "src/common/logging.h"
#include "src/serve/dot_block_impl.h"

namespace pane {
namespace serve {

int64_t PadDotBlockWidth(int64_t b) {
  PANE_CHECK(b >= 1 && b <= kMaxDotBlockWidth)
      << "query block of " << b << " has no dot-block width (max "
      << kMaxDotBlockWidth << ")";
  int64_t w = 1;
  while (w < b) w *= 2;
  return w;
}

namespace detail {

void DotBlockBadWidth(int64_t ld) {
  PANE_CHECK(false) << "no dot-block kernel for panel width " << ld
                    << " (widths are powers of two from 2 to "
                    << kMaxDotBlockWidth << ")";
  std::abort();
}

void DotBlockGeneric(const double* qt, int64_t h, int64_t ld,
                     const double* cand, double* out, int64_t out_stride,
                     bool add) {
  DotBlockDriver(qt, h, ld, cand, out, out_stride, add);
}

void DotRowsGeneric(const double* qa, const double* qb, int64_t h,
                    const double* rows, int64_t count, double* out) {
  DotRowsDriver(qa, qb, h, rows, count, out);
}

}  // namespace detail

DotBlockFn GetDotBlock() {
#if defined(__x86_64__)
  if (CpuHasAvx2()) return detail::DotBlockAvx2;
#endif
  return detail::DotBlockGeneric;
}

DotRowsFn GetDotRows() {
#if defined(__x86_64__)
  if (CpuHasAvx2()) return detail::DotRowsAvx2;
#endif
  return detail::DotRowsGeneric;
}

}  // namespace serve
}  // namespace pane
