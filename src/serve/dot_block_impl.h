// Shared implementation of the engine's dot kernels, included by the
// baseline (dot_block.cc) and AVX2 (dot_block_avx2.cc) translation units
// so both compile the exact same arithmetic under different instruction
// sets. Everything here is inline; the per-TU entry points wrap
// DotBlockDriver and DotRowsDriver.
//
// Both kernels reproduce vector_ops::Dot's accumulation per (query,
// candidate) pair exactly — four stride-4 partial sums combined as
// (s0 + s1) + (s2 + s3), then the ascending tail — and vectorize along a
// different axis:
//
//  * The block kernel runs the q-inner loops over QB independent
//    accumulators of a transposed query panel. QB and the panel width LD
//    are compile-time constants (the driver dispatches over the supported
//    power-of-two widths): with both known, the accumulator arrays live in
//    registers and the compiler vectorizes the contiguous q-dimension
//    cleanly. Callers pad query blocks to a supported width.
//  * The rows kernel serves one query: each candidate's four partial sums
//    sit in the four lanes of one vector accumulator (lane j is Dot's
//    s_j), and kDotRowsInFlight candidates are scored per pass so the
//    query chunk is loaded once for all of them and their add chains
//    overlap.
#pragma once

#include <cstdint>
#include <cstring>

#include "src/serve/dot_block.h"

namespace pane {
namespace serve {
namespace detail {

template <int QB, int LD>
inline void DotBlockFixed(const double* qt, int64_t h, const double* cand,
                          double* out, int64_t out_stride, bool add) {
  double s0[QB], s1[QB], s2[QB], s3[QB];
  for (int q = 0; q < QB; ++q) s0[q] = 0.0;
  for (int q = 0; q < QB; ++q) s1[q] = 0.0;
  for (int q = 0; q < QB; ++q) s2[q] = 0.0;
  for (int q = 0; q < QB; ++q) s3[q] = 0.0;
  int64_t t = 0;
  for (; t + 4 <= h; t += 4) {
    const double c0 = cand[t];
    const double c1 = cand[t + 1];
    const double c2 = cand[t + 2];
    const double c3 = cand[t + 3];
    const double* r0 = qt + t * LD;
    const double* r1 = r0 + LD;
    const double* r2 = r0 + 2 * LD;
    const double* r3 = r0 + 3 * LD;
    // One q-loop per partial-sum chain: each is a contiguous-stride
    // vectorizable update (a fused single loop tempts the vectorizer into
    // cross-chain gathers over t, an order of magnitude slower).
    for (int q = 0; q < QB; ++q) s0[q] += r0[q] * c0;
    for (int q = 0; q < QB; ++q) s1[q] += r1[q] * c1;
    for (int q = 0; q < QB; ++q) s2[q] += r2[q] * c2;
    for (int q = 0; q < QB; ++q) s3[q] += r3[q] * c3;
  }
  double o[QB];
  for (int q = 0; q < QB; ++q) o[q] = (s0[q] + s1[q]) + (s2[q] + s3[q]);
  for (; t < h; ++t) {
    const double ct = cand[t];
    const double* r = qt + t * LD;
    for (int q = 0; q < QB; ++q) o[q] += r[q] * ct;
  }
  if (add) {
    for (int q = 0; q < QB; ++q) out[q * out_stride] += o[q];
  } else {
    for (int q = 0; q < QB; ++q) out[q * out_stride] = o[q];
  }
}

/// One full panel of compile-time width LD: register sub-tiles of 8 (or
/// the whole panel for the narrow widths).
template <int LD>
inline void DotBlockWidth(const double* qt, int64_t h, const double* cand,
                          double* out, int64_t out_stride, bool add) {
  if constexpr (LD >= 8) {
    for (int q = 0; q + 8 <= LD; q += 8) {
      DotBlockFixed<8, LD>(qt + q, h, cand, out + q * out_stride, out_stride,
                           add);
    }
  } else {
    DotBlockFixed<LD, LD>(qt, h, cand, out, out_stride, add);
  }
}

/// Width dispatch over the supported panel widths, 2 to kMaxDotBlockWidth
/// (a lone query goes to the rows kernel instead); any other width aborts.
inline void DotBlockDriver(const double* qt, int64_t h, int64_t ld,
                           const double* cand, double* out,
                           int64_t out_stride, bool add) {
  switch (ld) {
    case 64:
      DotBlockWidth<64>(qt, h, cand, out, out_stride, add);
      return;
    case 32:
      DotBlockWidth<32>(qt, h, cand, out, out_stride, add);
      return;
    case 16:
      DotBlockWidth<16>(qt, h, cand, out, out_stride, add);
      return;
    case 8:
      DotBlockWidth<8>(qt, h, cand, out, out_stride, add);
      return;
    case 4:
      DotBlockWidth<4>(qt, h, cand, out, out_stride, add);
      return;
    case 2:
      DotBlockWidth<2>(qt, h, cand, out, out_stride, add);
      return;
    default:
      DotBlockBadWidth(ld);
  }
}

/// Four doubles as one vector value (two SSE2 registers in the baseline
/// TU, one ymm register in the AVX2 TU). Lane-wise + and * round exactly
/// like the scalar operations they replace.
typedef double Lanes4 __attribute__((vector_size(4 * sizeof(double))));

/// Scores NC contiguous rows (row c at rows + c * h) against query qa, and
/// also against qb when kDual. Per row: lanes of `sa` hold Dot(qa, row)'s
/// s0..s3, combined as (s0 + s1) + (s2 + s3) before the ascending tail;
/// the dual score adds Dot(qb, row) after Dot(qa, row).
template <int NC, bool kDual>
inline void DotRowsFixed(const double* qa, const double* qb, int64_t h,
                         const double* rows, double* out) {
  Lanes4 sa[NC], sb[NC];
  for (int c = 0; c < NC; ++c) {
    sa[c] = Lanes4{0.0, 0.0, 0.0, 0.0};
    sb[c] = Lanes4{0.0, 0.0, 0.0, 0.0};
  }
  int64_t t = 0;
  for (; t + 4 <= h; t += 4) {
    // memcpy loads: rows and queries are only 8-byte aligned.
    Lanes4 a, b;
    std::memcpy(&a, qa + t, sizeof(a));
    if constexpr (kDual) std::memcpy(&b, qb + t, sizeof(b));
    for (int c = 0; c < NC; ++c) {
      Lanes4 r;
      std::memcpy(&r, rows + c * h + t, sizeof(r));
      sa[c] += a * r;
      if constexpr (kDual) sb[c] += b * r;
    }
  }
  for (int c = 0; c < NC; ++c) {
    const double* row = rows + c * h;
    double oa = (sa[c][0] + sa[c][1]) + (sa[c][2] + sa[c][3]);
    for (int64_t u = t; u < h; ++u) oa += qa[u] * row[u];
    if constexpr (kDual) {
      double ob = (sb[c][0] + sb[c][1]) + (sb[c][2] + sb[c][3]);
      for (int64_t u = t; u < h; ++u) ob += qb[u] * row[u];
      out[c] = oa + ob;
    } else {
      out[c] = oa;
    }
  }
}

template <bool kDual>
inline void DotRowsRun(const double* qa, const double* qb, int64_t h,
                       const double* rows, int64_t count, double* out) {
  int64_t c = 0;
  for (; c + kDotRowsInFlight <= count; c += kDotRowsInFlight) {
    DotRowsFixed<kDotRowsInFlight, kDual>(qa, qb, h, rows + c * h, out + c);
  }
  for (; c < count; ++c) {
    DotRowsFixed<1, kDual>(qa, qb, h, rows + c * h, out + c);
  }
}

inline void DotRowsDriver(const double* qa, const double* qb, int64_t h,
                          const double* rows, int64_t count, double* out) {
  if (qb != nullptr) {
    DotRowsRun<true>(qa, qb, h, rows, count, out);
  } else {
    DotRowsRun<false>(qa, qb, h, rows, count, out);
  }
}

}  // namespace detail
}  // namespace serve
}  // namespace pane
