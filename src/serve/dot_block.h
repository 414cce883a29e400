// The serving engine's dot-product kernels, behind a runtime ISA dispatch.
// One translation unit compiles the shared implementation
// (dot_block_impl.h) at the build's baseline ISA, a second compiles the
// same code with AVX2 enabled (x86-64 only, no FMA — fused multiply-add
// would change rounding and break the bitwise contract with
// vector_ops::Dot); GetDotBlock() / GetDotRows() pick the widest variant
// the running CPU supports, once, at first use.
//
// Two kernels cover the two batch shapes of the exact scan:
//  * DotBlockFn scores one candidate row against a transposed block of up
//    to kMaxDotBlockWidth queries, vectorizing across the queries;
//  * DotRowsFn scores a run of contiguous candidate rows against a single
//    query, vectorizing across each row's four stride-4 partial sums and
//    keeping kDotRowsInFlight candidates in flight.
// Both return bitwise vector_ops::Dot's value for every pair.
#pragma once

#include <cstdint>

namespace pane {
namespace serve {

/// Scores one candidate row against a transposed query block of width ld:
/// writes the inner product of query q (column q of `qt`) with `cand`
/// (length h) to out[q * out_stride] for every q in [0, ld). `ld` must be
/// a width PadDotBlockWidth returns for a block of 2 or more queries (a
/// single query takes DotRowsFn); any other width aborts. Per-pair
/// accumulation is bitwise identical to vector_ops::Dot.
using DotBlockFn = void (*)(const double* qt, int64_t h, int64_t ld,
                            const double* cand, double* out,
                            int64_t out_stride, bool add);

/// Scores `count` contiguous candidate rows of length h (row r starts at
/// rows + r * h) against one query: out[r] = Dot(qa, row r), or, when qb
/// is non-null, Dot(qa, row r) + Dot(qb, row r) added in that order — the
/// Eq. 21 attribute score off one load of each row. Bitwise identical to
/// vector_ops::Dot.
using DotRowsFn = void (*)(const double* qa, const double* qb, int64_t h,
                           const double* rows, int64_t count, double* out);

/// The best variants for this CPU (resolved once; thread-safe).
DotBlockFn GetDotBlock();
DotRowsFn GetDotRows();

/// Widest query panel the block kernel takes; the engine clamps its query
/// block to it.
constexpr int64_t kMaxDotBlockWidth = 64;

/// Candidates the rows kernel scores per pass (a run's remainder is scored
/// one at a time).
constexpr int kDotRowsInFlight = 4;

/// Panel widths with compile-time kernels are the powers of two up to
/// kMaxDotBlockWidth. A block of b in [1, kMaxDotBlockWidth] queries is
/// padded up to the next one (zero-filled query columns; their outputs are
/// ignored); any other b aborts.
int64_t PadDotBlockWidth(int64_t b);

namespace detail {
/// Aborts naming `ld`: the block kernels' answer to a panel width with no
/// compile-time kernel. Defined in the baseline TU so the AVX2 TU never
/// compiles the logging code.
[[noreturn]] void DotBlockBadWidth(int64_t ld);

void DotBlockGeneric(const double* qt, int64_t h, int64_t ld,
                     const double* cand, double* out, int64_t out_stride,
                     bool add);
void DotRowsGeneric(const double* qa, const double* qb, int64_t h,
                    const double* rows, int64_t count, double* out);
#if defined(__x86_64__)
void DotBlockAvx2(const double* qt, int64_t h, int64_t ld,
                  const double* cand, double* out, int64_t out_stride,
                  bool add);
void DotRowsAvx2(const double* qa, const double* qb, int64_t h,
                 const double* rows, int64_t count, double* out);
#endif
}  // namespace detail

}  // namespace serve
}  // namespace pane
