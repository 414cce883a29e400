// The AVX2 compilation of the shared tile kernel (see tile_gemm_impl.h).
// This translation unit is built with -mavx2 -ffp-contract=off on x86-64
// (see CMakeLists.txt): 4-lane vectors but NO fused multiply-add, so every
// element rounds exactly like the baseline build. GetTileGemm() only
// returns this variant when the running CPU reports AVX2.
#if defined(__x86_64__)

#include "src/matrix/tile_gemm.h"
#include "src/matrix/tile_gemm_impl.h"

namespace pane {
namespace detail {

void TileGemmAvx2(int64_t m, int64_t n, int64_t kdim, const double* a,
                  int64_t a_rs, int64_t a_ks, const double* b, int64_t ldb,
                  double* c, int64_t ldc, bool subtract) {
  TileGemmDriver(m, n, kdim, a, a_rs, a_ks, b, ldb, c, ldc, subtract);
}

}  // namespace detail
}  // namespace pane

#endif  // defined(__x86_64__)
