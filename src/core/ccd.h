// Cyclic coordinate descent refinement (Algorithm 4, SVDCCD) and its
// block-parallel version (Algorithm 8, PSVDCCD). Each iteration fixes Y and
// sweeps the rows of Xf / Xb (Equations 13-14 / 16 / 18-19), then fixes
// Xf / Xb and sweeps the rows of Y (Equations 15 / 17 / 20).
//
// Both phases run in Gram form. With Y fixed, node row i's coordinate
// sequence depends on its residual row only through g = S_i Y: the l-th
// minimizer is mu_l = (g_l - sum_{j<l} mu_j (Y^T Y)_{jl}) / (Y^T Y)_{ll},
// after which the residual row moves by -mu Y^T. So phase 1 works per
// node-row tile as three steps — G = S_tile Y, the k/2 x k/2 recurrence
// per row, and S_tile -= M Y^T while the tile is still in cache — and
// phase 2 likewise, with B^T = Xf^T Sf + Xb^T Sb accumulated over ascending
// node rows, the recurrence against Xf^T Xf + Xb^T Xb per attribute, and
// Sf -= Xf dY^T, Sb -= Xb dY^T. Every product runs on the register-blocked
// tile kernel (src/matrix/tile_gemm.h); the arithmetic is the per-coordinate
// sweep's, reassociated.
//
// Every element's accumulation order is fixed (ascending inner index), so
// results are bitwise identical for every thread count, tile size, memory
// budget and slab backing. The residuals live in FactorSlabs and are only
// ever streamed by rows; spilled rows are released granule by granule.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/core/greedy_init.h"

namespace pane {

class ThreadPool;

/// \brief How one CcdRefine call sized its streaming state.
struct CcdStats {
  /// Retired: CCD no longer gathers residual column strips, so this reads
  /// 0. Kept until the next benchmark change because perfbench prints it.
  int64_t strip_width = 0;
  /// CCD's own scratch: the h x d accumulators, Y update and Y^T, the
  /// k/2 x k/2 Gram matrix and the per-worker tile buffers.
  int64_t scratch_bytes = 0;
};

struct CcdOptions {
  /// Number of full CCD sweeps (the t of Algorithm 1 by default).
  int iterations = 5;
  /// Worker pool: node-row blocks in phase 1 and in phase 2's residual
  /// update; phase 2's accumulation splits the attribute columns across
  /// workers (Algorithm 8). nullptr => serial Algorithm 4. Results are
  /// bitwise identical for every pool size.
  ThreadPool* pool = nullptr;
  /// Memory budget in MiB; sizes only the release granule, the node rows
  /// each worker streams between releases of spilled residual rows: the
  /// workers' Sf and Sb rows share the half of the budget the buffer pool
  /// does not hold, within 16 to 4096 rows. 0 => 4096 rows. Affects
  /// residency only — never the arithmetic.
  int64_t memory_budget_mb = 0;
  /// Optional per-iteration objective trace (appended; Figures 7-8).
  std::vector<double>* objective_trace = nullptr;
  /// Optional streaming diagnostics.
  CcdStats* stats = nullptr;
};

/// \brief Refines `state` in place. The residuals sf / sb are maintained
/// incrementally and remain consistent with (xf, xb, y) on return.
Status CcdRefine(EmbeddingState* state, const CcdOptions& options);

}  // namespace pane
