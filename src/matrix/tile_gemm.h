// Register-blocked dense update kernel behind a runtime ISA dispatch, the
// inner loop of the Gram-form CCD (src/core/ccd.cc). One translation unit
// compiles the shared implementation (tile_gemm_impl.h) at the build's
// baseline ISA, a second compiles the same code with AVX2 enabled (x86-64
// only, no FMA); GetTileGemm() picks the widest variant the running CPU
// supports, once, at first use.
//
// The kernel's contract is a fixed per-element operation sequence, not just
// a product: every element of C is updated by one rounded multiply and one
// rounded add (or subtract) per inner index, in ascending inner-index
// order, starting from C's current value. Neither the register tile shape,
// the vector width, nor how a caller splits the inner dimension into
// consecutive calls changes a single bit of the result — which is what lets
// CCD keep its results bitwise identical across thread counts, tile sizes
// and slab backings, and both builds bitwise equal to each other.
#pragma once

#include <cstdint>

namespace pane {

/// Updates the m x n matrix C (row r at c + r * ldc) in place:
///
///   for p = 0, 1, ..., kdim - 1:
///     C[r][j] = C[r][j] + A(r, p) * B[p][j]     (subtract = false)
///     C[r][j] = C[r][j] - A(r, p) * B[p][j]     (subtract = true)
///
/// with A(r, p) = a[r * a_rs + p * a_ks] (so either layout of A, or of Aᵀ,
/// is addressed in place) and B[p][j] = b[p * ldb + j]. Each product and
/// each sum is rounded on its own: there is no fused multiply-add.
using TileGemmFn = void (*)(int64_t m, int64_t n, int64_t kdim,
                            const double* a, int64_t a_rs, int64_t a_ks,
                            const double* b, int64_t ldb, double* c,
                            int64_t ldc, bool subtract);

/// The best variant for this CPU (resolved once; thread-safe).
TileGemmFn GetTileGemm();

namespace detail {
void TileGemmGeneric(int64_t m, int64_t n, int64_t kdim, const double* a,
                     int64_t a_rs, int64_t a_ks, const double* b, int64_t ldb,
                     double* c, int64_t ldc, bool subtract);
#if defined(__x86_64__)
void TileGemmAvx2(int64_t m, int64_t n, int64_t kdim, const double* a,
                  int64_t a_rs, int64_t a_ks, const double* b, int64_t ldb,
                  double* c, int64_t ldc, bool subtract);
#endif
}  // namespace detail

}  // namespace pane
