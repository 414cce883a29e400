// The AVX2 compilation of the shared dot kernels (see dot_block_impl.h).
// This translation unit — and only this one — is built with -mavx2
// -ffp-contract=off on x86-64 (see CMakeLists.txt): 4-lane vectors (across
// the queries of a block, or across one row's partial sums), but NO fused
// multiply-add, so every (query, candidate) pair still rounds exactly like
// vector_ops::Dot and the serving engine's bitwise-equality contract
// holds. GetDotBlock() / GetDotRows() only return these variants when the
// running CPU reports AVX2.
#if defined(__x86_64__)

#include "src/serve/dot_block.h"
#include "src/serve/dot_block_impl.h"

namespace pane {
namespace serve {
namespace detail {

void DotBlockAvx2(const double* qt, int64_t h, int64_t ld,
                  const double* cand, double* out, int64_t out_stride,
                  bool add) {
  DotBlockDriver(qt, h, ld, cand, out, out_stride, add);
}

void DotRowsAvx2(const double* qa, const double* qb, int64_t h,
                 const double* rows, int64_t count, double* out) {
  DotRowsDriver(qa, qb, h, rows, count, out);
}

}  // namespace detail
}  // namespace serve
}  // namespace pane

#endif  // defined(__x86_64__)
