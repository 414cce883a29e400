#include "src/core/ccd.h"

#include <algorithm>
#include <vector>

#include "src/matrix/tile_gemm.h"
#include "src/parallel/thread_pool.h"

namespace pane {
namespace {

// Coordinate directions whose denominator underflows are skipped (their
// update is zero): they arise when k/2 exceeds the rank of the affinity
// matrices and a Y (or X) column is identically zero.
constexpr double kDenominatorFloor = 1e-300;

// Largest row granule a worker streams between releases of spilled
// residual rows.
constexpr int64_t kStreamChunkRows = 4096;

// Node rows per phase-1 tile: G = S_tile Y, the recurrence, and
// S_tile -= M Y^T run back to back while the tile's d-long residual rows
// are still in cache.
constexpr int64_t kNodeTileRows = 16;

// Node rows per step of the phase-2 accumulation B^T = X^T S: a worker's
// column slice of that many residual rows stays in cache across its
// register tiles.
constexpr int64_t kColumnPassRows = 64;

// Node rows per step of the X^T X Gram accumulation.
constexpr int64_t kGramChunkRows = 512;

// Rows each worker keeps in flight between releases of spilled residual
// rows: the budget's half that PlanSlabStorage leaves outside the buffer
// pool, shared by the workers' Sf and Sb rows. Residency only — the
// arithmetic never depends on it.
int64_t ReleaseGranuleRows(int64_t d, int workers, int64_t memory_budget_mb) {
  if (memory_budget_mb <= 0) return kStreamChunkRows;
  const int64_t bytes_per_row = 2 * static_cast<int64_t>(sizeof(double)) *
                                std::max<int64_t>(d, 1) * workers;
  return std::clamp<int64_t>((memory_budget_mb << 20) / 2 / bytes_per_row,
                             kNodeTileRows, kStreamChunkRows);
}

// One row's coordinate sweep from its Gram-form right-hand side. With the
// other factor fixed, the per-coordinate minimizer of Equation (16) / (17)
// for coordinate l, taken after coordinates 0..l-1 moved by mu[0..l-1], is
//   mu[l] = (rhs[l] - sum_{j<l} mu[j] gram[l][j]) / gram[l][l]
// where rhs is the residual row (column) times the fixed factor and gram
// that factor's Gram matrix. Sums run in ascending j.
void SolveCoordinates(const double* gram, int64_t h, const double* rhs,
                      double* mu) {
  for (int64_t l = 0; l < h; ++l) {
    const double* gram_l = gram + l * h;
    const double denom = gram_l[l];
    if (denom < kDenominatorFloor) {
      mu[l] = 0.0;
      continue;
    }
    double numer = rhs[l];
    for (int64_t j = 0; j < l; ++j) numer -= mu[j] * gram_l[j];
    mu[l] = numer / denom;
  }
}

// gram += X^T X for the n x h factor x, accumulated over ascending rows.
void AccumulateGram(TileGemmFn gemm, const DenseMatrix& x, double* gram) {
  const int64_t n = x.rows();
  const int64_t h = x.cols();
  for (int64_t i = 0; i < n; i += kGramChunkRows) {
    const int64_t rows = std::min(kGramChunkRows, n - i);
    gemm(h, h, rows, x.Row(i), 1, h, x.Row(i), h, gram, h,
         /*subtract=*/false);
  }
}

// Phase 1 for node rows [begin, end) of one side (s, x): Equations (13) /
// (14), (16) and (18) / (19) for every coordinate of every row, in the
// per-coordinate order, computed per tile as G = S_tile Y, the recurrence
// against Y^T Y, and S_tile -= M Y^T. `g` and `mu` hold kNodeTileRows x h.
void SweepNodeRows(TileGemmFn gemm, FactorSlab* s, DenseMatrix* x,
                   const DenseMatrix& y, const DenseMatrix& yt,
                   const std::vector<double>& y_gram, int64_t begin,
                   int64_t end, double* g, double* mu) {
  const int64_t h = x->cols();
  const int64_t d = s->cols();
  for (int64_t tile = begin; tile < end; tile += kNodeTileRows) {
    const int64_t rows = std::min(kNodeTileRows, end - tile);
    std::fill(g, g + rows * h, 0.0);
    gemm(rows, h, d, s->Row(tile), d, 1, y.data(), h, g, h,
         /*subtract=*/false);
    for (int64_t r = 0; r < rows; ++r) {
      double* mu_r = mu + r * h;
      SolveCoordinates(y_gram.data(), h, g + r * h, mu_r);
      double* x_row = x->Row(tile + r);
      for (int64_t l = 0; l < h; ++l) x_row[l] -= mu_r[l];
    }
    gemm(rows, d, h, mu, h, 1, yt.data(), d, s->Row(tile), d,
         /*subtract=*/true);
  }
}

}  // namespace

Status CcdRefine(EmbeddingState* state, const CcdOptions& options) {
  if (state == nullptr) return Status::InvalidArgument("null state");
  const int64_t n = state->xf.rows();
  const int64_t d = state->y.rows();
  const int64_t h = state->xf.cols();
  if (state->xb.rows() != n || state->xb.cols() != h ||
      state->y.cols() != h || state->sf.rows() != n || state->sf.cols() != d ||
      state->sb.rows() != n || state->sb.cols() != d) {
    return Status::InvalidArgument("inconsistent embedding state shapes");
  }
  if (options.iterations < 0) {
    return Status::InvalidArgument("iterations must be >= 0");
  }
  if (options.memory_budget_mb < 0) {
    return Status::InvalidArgument("memory_budget_mb must be >= 0");
  }

  ThreadPool* pool = options.pool;
  const int nb = pool != nullptr ? pool->num_threads() : 1;
  const std::vector<Range> node_blocks = PartitionRange(n, nb);
  const std::vector<Range> column_blocks = PartitionRange(d, nb);
  const int64_t granule = ReleaseGranuleRows(d, nb, options.memory_budget_mb);
  const TileGemmFn gemm = GetTileGemm();

  // Per-worker phase-1 tile scratch (G and M), the phase-2 accumulators
  // Bf^T = Xf^T Sf and Bb^T = Xb^T Sb, the Y update dY^T (all h x d), and
  // the Gram matrix.
  const int64_t node_scratch = 2 * kNodeTileRows * h;
  std::vector<double> node_tiles(static_cast<size_t>(nb * node_scratch));
  std::vector<double> bft(static_cast<size_t>(h * d));
  std::vector<double> bbt(static_cast<size_t>(h * d));
  std::vector<double> dyt(static_cast<size_t>(h * d));
  std::vector<double> gram(static_cast<size_t>(h * h));
  if (options.stats != nullptr) {
    options.stats->strip_width = 0;
    // The buffers above plus phase 1's Y^T (h x d).
    options.stats->scratch_bytes =
        static_cast<int64_t>(sizeof(double)) *
        (nb * node_scratch + 4 * d * h + h * h);
  }

  for (int iter = 0; iter < options.iterations; ++iter) {
    // ----- Phase 1 (Algorithm 4 lines 3-9 / Algorithm 8 lines 3-10): Y
    // fixed, sweep Xf / Xb rows; spilled residual rows are released as each
    // granule finishes so phase-1 residency stays at the granule level.
    const DenseMatrix yt = state->y.Transposed();
    std::fill(gram.begin(), gram.end(), 0.0);
    gemm(h, h, d, state->y.data(), 1, h, state->y.data(), h, gram.data(), h,
         /*subtract=*/false);
    const auto phase1_rows = [&](int b, int64_t begin, int64_t end) {
      double* g = node_tiles.data() + b * node_scratch;
      double* mu = g + kNodeTileRows * h;
      for (int64_t chunk = begin; chunk < end; chunk += granule) {
        const int64_t chunk_end = std::min(chunk + granule, end);
        SweepNodeRows(gemm, &state->sf, &state->xf, state->y, yt, gram, chunk,
                      chunk_end, g, mu);
        ReleaseRowsOrWarn(state->sf, chunk, chunk_end, /*dirty=*/true);
        SweepNodeRows(gemm, &state->sb, &state->xb, state->y, yt, gram, chunk,
                      chunk_end, g, mu);
        ReleaseRowsOrWarn(state->sb, chunk, chunk_end, /*dirty=*/true);
      }
    };
    if (nb == 1) {
      phase1_rows(0, 0, n);
    } else {
      pool->RunBlocks(nb, [&](int b) {
        const Range& blk = node_blocks[static_cast<size_t>(b)];
        if (blk.size() > 0) phase1_rows(b, blk.begin, blk.end);
      });
    }

    // ----- Phase 2 (Algorithm 4 lines 10-14 / Algorithm 8 lines 11-16):
    // Xf / Xb fixed, sweep Y rows. Attribute c's coordinate sweep needs
    // only column c of Bf^T + Bb^T (its residual columns times Xf / Xb) and
    // the Gram Xf^T Xf + Xb^T Xb, so residual columns are never gathered:
    // one row-streaming pass accumulates B^T over ascending node rows
    // (workers own column slices; a barrier closes each granule before its
    // rows are released), the recurrence yields the Y update, and a second
    // row-streaming pass applies it.
    std::fill(gram.begin(), gram.end(), 0.0);
    AccumulateGram(gemm, state->xf, gram.data());
    AccumulateGram(gemm, state->xb, gram.data());
    std::fill(bft.begin(), bft.end(), 0.0);
    std::fill(bbt.begin(), bbt.end(), 0.0);
    const auto accumulate_columns = [&](const Range& cols, int64_t begin,
                                        int64_t end) {
      if (cols.size() == 0) return;
      for (int64_t i = begin; i < end; i += kColumnPassRows) {
        const int64_t rows = std::min(kColumnPassRows, end - i);
        gemm(h, cols.size(), rows, state->xf.Row(i), 1, h,
             state->sf.Row(i) + cols.begin, d, bft.data() + cols.begin, d,
             /*subtract=*/false);
        gemm(h, cols.size(), rows, state->xb.Row(i), 1, h,
             state->sb.Row(i) + cols.begin, d, bbt.data() + cols.begin, d,
             /*subtract=*/false);
      }
    };
    for (int64_t chunk = 0; chunk < n; chunk += granule) {
      const int64_t chunk_end = std::min(chunk + granule, n);
      if (nb == 1) {
        accumulate_columns(Range{0, d}, chunk, chunk_end);
      } else {
        pool->RunBlocks(nb, [&](int b) {
          accumulate_columns(column_blocks[static_cast<size_t>(b)], chunk,
                             chunk_end);
        });
      }
      ReleaseRowsOrWarn(state->sf, chunk, chunk_end, /*dirty=*/false);
      ReleaseRowsOrWarn(state->sb, chunk, chunk_end, /*dirty=*/false);
    }
    {
      std::vector<double> rhs(static_cast<size_t>(h));
      std::vector<double> mu(static_cast<size_t>(h));
      for (int64_t c = 0; c < d; ++c) {
        for (int64_t l = 0; l < h; ++l) {
          rhs[static_cast<size_t>(l)] = bft[static_cast<size_t>(l * d + c)] +
                                        bbt[static_cast<size_t>(l * d + c)];
        }
        SolveCoordinates(gram.data(), h, rhs.data(), mu.data());  // Eq. (17)
        double* y_row = state->y.Row(c);
        for (int64_t l = 0; l < h; ++l) {
          y_row[l] -= mu[static_cast<size_t>(l)];                 // Eq. (15)
          dyt[static_cast<size_t>(l * d + c)] = mu[static_cast<size_t>(l)];
        }
      }
    }
    // Equation (20): Sf -= Xf dY^T, Sb -= Xb dY^T, split by rows.
    const auto phase2_rows = [&](int64_t begin, int64_t end) {
      for (int64_t chunk = begin; chunk < end; chunk += granule) {
        const int64_t chunk_end = std::min(chunk + granule, end);
        const int64_t rows = chunk_end - chunk;
        gemm(rows, d, h, state->xf.Row(chunk), h, 1, dyt.data(), d,
             state->sf.Row(chunk), d, /*subtract=*/true);
        ReleaseRowsOrWarn(state->sf, chunk, chunk_end, /*dirty=*/true);
        gemm(rows, d, h, state->xb.Row(chunk), h, 1, dyt.data(), d,
             state->sb.Row(chunk), d, /*subtract=*/true);
        ReleaseRowsOrWarn(state->sb, chunk, chunk_end, /*dirty=*/true);
      }
    };
    if (nb == 1) {
      phase2_rows(0, n);
    } else {
      pool->RunBlocks(nb, [&](int b) {
        const Range& blk = node_blocks[static_cast<size_t>(b)];
        if (blk.size() > 0) phase2_rows(blk.begin, blk.end);
      });
    }

    if (options.objective_trace != nullptr) {
      options.objective_trace->push_back(Objective(*state));
    }
  }
  return Status::OK();
}

}  // namespace pane
