// Shared implementation of the tile kernel (tile_gemm.h), included by the
// baseline (tile_gemm.cc) and AVX2 (tile_gemm_avx2.cc) translation units so
// both compile the exact same arithmetic under different instruction sets.
// Everything here is inline; the per-TU entry points wrap TileGemmDriver.
//
// C is covered by register tiles of kTileRows rows by kTileVectors 4-lane
// vectors: each tile's accumulators are loaded from C once, updated for
// every inner index (one broadcast of A(r, p) per row, one vector load of
// B's row p per vector) and stored once. Row tails use 1-3 row tiles, column
// tails 8- and 4-wide vector tiles and then 1-3 scalar columns. Every
// element sees the same sequence acc = acc +/- a * b whichever tile covers
// it: lanes of a vector round exactly like the scalar operations they
// replace, and the translation units are built without FP contraction.
//
// Everything below sits in an unnamed namespace on purpose: each including
// TU must keep its own instantiations. As ordinary inline templates, the
// baseline and AVX2 copies of a tile function that the compiler leaves out
// of line share one mangled name, and the linker keeps one of them for
// both entry points — the AVX2 entry would run the baseline code (or the
// baseline entry AVX2 code on a CPU without it).
#pragma once

#include <cstdint>
#include <cstring>

#include "src/matrix/tile_gemm.h"

namespace pane {
namespace detail {
namespace {

/// Four doubles as one vector value (two SSE2 registers in the baseline
/// TU, one ymm register in the AVX2 TU).
typedef double TileLanes4 __attribute__((vector_size(4 * sizeof(double))));

/// Rows per register tile.
constexpr int kTileRows = 4;
/// 4-lane vectors per register tile row: 4 x 12 tiles keep twelve
/// accumulators plus the broadcast and one product in the sixteen ymm
/// registers.
constexpr int kTileVectors = 3;

template <int R, int V, bool kSub>
inline void TileVectors(int64_t kdim, const double* a, int64_t a_rs,
                        int64_t a_ks, const double* b, int64_t ldb, double* c,
                        int64_t ldc) {
  TileLanes4 acc[R][V];
  // memcpy loads / stores: rows of B and C are only 8-byte aligned.
  #pragma GCC unroll 16
  for (int r = 0; r < R; ++r) {
    #pragma GCC unroll 16
    for (int v = 0; v < V; ++v) {
      std::memcpy(&acc[r][v], c + r * ldc + 4 * v, sizeof(TileLanes4));
    }
  }
  for (int64_t p = 0; p < kdim; ++p) {
    const double* bp = b + p * ldb;
    const double* ap = a + p * a_ks;
    TileLanes4 bv[V];
    #pragma GCC unroll 16
    for (int v = 0; v < V; ++v) {
      std::memcpy(&bv[v], bp + 4 * v, sizeof(TileLanes4));
    }
    #pragma GCC unroll 16
    for (int r = 0; r < R; ++r) {
      const double ar = ap[r * a_rs];
      const TileLanes4 av = {ar, ar, ar, ar};
      #pragma GCC unroll 16
      for (int v = 0; v < V; ++v) {
        if constexpr (kSub) {
          acc[r][v] -= av * bv[v];
        } else {
          acc[r][v] += av * bv[v];
        }
      }
    }
  }
  #pragma GCC unroll 16
  for (int r = 0; r < R; ++r) {
    #pragma GCC unroll 16
    for (int v = 0; v < V; ++v) {
      std::memcpy(c + r * ldc + 4 * v, &acc[r][v], sizeof(TileLanes4));
    }
  }
}

template <int R, int W, bool kSub>
inline void TileScalars(int64_t kdim, const double* a, int64_t a_rs,
                        int64_t a_ks, const double* b, int64_t ldb, double* c,
                        int64_t ldc) {
  double acc[R][W];
  #pragma GCC unroll 16
  for (int r = 0; r < R; ++r) {
    #pragma GCC unroll 16
    for (int w = 0; w < W; ++w) acc[r][w] = c[r * ldc + w];
  }
  for (int64_t p = 0; p < kdim; ++p) {
    const double* bp = b + p * ldb;
    const double* ap = a + p * a_ks;
    #pragma GCC unroll 16
    for (int r = 0; r < R; ++r) {
      const double ar = ap[r * a_rs];
      #pragma GCC unroll 16
      for (int w = 0; w < W; ++w) {
        if constexpr (kSub) {
          acc[r][w] -= ar * bp[w];
        } else {
          acc[r][w] += ar * bp[w];
        }
      }
    }
  }
  #pragma GCC unroll 16
  for (int r = 0; r < R; ++r) {
    #pragma GCC unroll 16
    for (int w = 0; w < W; ++w) c[r * ldc + w] = acc[r][w];
  }
}

/// One band of R rows across all n columns.
template <int R, bool kSub>
inline void TileBand(int64_t n, int64_t kdim, const double* a, int64_t a_rs,
                     int64_t a_ks, const double* b, int64_t ldb, double* c,
                     int64_t ldc) {
  constexpr int64_t kWidth = 4 * kTileVectors;
  int64_t j = 0;
  for (; j + kWidth <= n; j += kWidth) {
    TileVectors<R, kTileVectors, kSub>(kdim, a, a_rs, a_ks, b + j, ldb, c + j,
                                       ldc);
  }
  if (j + 8 <= n) {
    TileVectors<R, 2, kSub>(kdim, a, a_rs, a_ks, b + j, ldb, c + j, ldc);
    j += 8;
  }
  if (j + 4 <= n) {
    TileVectors<R, 1, kSub>(kdim, a, a_rs, a_ks, b + j, ldb, c + j, ldc);
    j += 4;
  }
  switch (n - j) {
    case 3:
      TileScalars<R, 3, kSub>(kdim, a, a_rs, a_ks, b + j, ldb, c + j, ldc);
      break;
    case 2:
      TileScalars<R, 2, kSub>(kdim, a, a_rs, a_ks, b + j, ldb, c + j, ldc);
      break;
    case 1:
      TileScalars<R, 1, kSub>(kdim, a, a_rs, a_ks, b + j, ldb, c + j, ldc);
      break;
    default:
      break;
  }
}

template <bool kSub>
inline void TileGemmRows(int64_t m, int64_t n, int64_t kdim, const double* a,
                         int64_t a_rs, int64_t a_ks, const double* b,
                         int64_t ldb, double* c, int64_t ldc) {
  int64_t i = 0;
  for (; i + kTileRows <= m; i += kTileRows) {
    TileBand<kTileRows, kSub>(n, kdim, a + i * a_rs, a_rs, a_ks, b, ldb,
                              c + i * ldc, ldc);
  }
  switch (m - i) {
    case 3:
      TileBand<3, kSub>(n, kdim, a + i * a_rs, a_rs, a_ks, b, ldb,
                        c + i * ldc, ldc);
      break;
    case 2:
      TileBand<2, kSub>(n, kdim, a + i * a_rs, a_rs, a_ks, b, ldb,
                        c + i * ldc, ldc);
      break;
    case 1:
      TileBand<1, kSub>(n, kdim, a + i * a_rs, a_rs, a_ks, b, ldb,
                        c + i * ldc, ldc);
      break;
    default:
      break;
  }
}

inline void TileGemmDriver(int64_t m, int64_t n, int64_t kdim,
                           const double* a, int64_t a_rs, int64_t a_ks,
                           const double* b, int64_t ldb, double* c,
                           int64_t ldc, bool subtract) {
  if (subtract) {
    TileGemmRows<true>(m, n, kdim, a, a_rs, a_ks, b, ldb, c, ldc);
  } else {
    TileGemmRows<false>(m, n, kdim, a, a_rs, a_ks, b, ldb, c, ldc);
  }
}

}  // namespace
}  // namespace detail
}  // namespace pane
