#include "src/matrix/tile_gemm.h"

#include "src/common/cpu.h"
#include "src/matrix/tile_gemm_impl.h"

namespace pane {
namespace detail {

void TileGemmGeneric(int64_t m, int64_t n, int64_t kdim, const double* a,
                     int64_t a_rs, int64_t a_ks, const double* b, int64_t ldb,
                     double* c, int64_t ldc, bool subtract) {
  TileGemmDriver(m, n, kdim, a, a_rs, a_ks, b, ldb, c, ldc, subtract);
}

}  // namespace detail

TileGemmFn GetTileGemm() {
#if defined(__x86_64__)
  if (CpuHasAvx2()) return detail::TileGemmAvx2;
#endif
  return detail::TileGemmGeneric;
}

}  // namespace pane
