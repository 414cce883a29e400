// Dense matrix-multiply kernels used by randomized SVD (Q^T A, A Omega),
// greedy initialization (Xf = U Sigma, Xb = B' Y), and residual formation
// (Sf = Xf Y^T - F'). Cache-aware loop orders, optionally row-parallel.
#pragma once

#include "src/matrix/dense_matrix.h"

namespace pane {

class ThreadPool;

/// C = A * B. C resized to (A.rows, B.cols).
void Gemm(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* c,
          ThreadPool* pool = nullptr);

/// View-A variant: streams rows of `a` (e.g. a FactorSlab row range)
/// through the same kernel — per-element arithmetic identical to the
/// DenseMatrix form.
void Gemm(ConstMatrixView a, const DenseMatrix& b, DenseMatrix* c,
          ThreadPool* pool = nullptr);

/// View-B variant (B = Q^T A with A a slab view).
void Gemm(const DenseMatrix& a, ConstMatrixView b, DenseMatrix* c,
          ThreadPool* pool = nullptr);

/// C = A^T * B. C resized to (A.cols, B.cols).
void GemmTransA(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* c,
                ThreadPool* pool = nullptr);

/// View-A variant of C = A^T * B that streams rows of `a` instead of
/// materializing the d x n transpose — the accumulation order per output
/// element (ascending row index of A) matches the transpose-then-multiply
/// form bitwise, so RandSVD produces identical factors through either.
void GemmTransA(ConstMatrixView a, const DenseMatrix& b, DenseMatrix* c,
                ThreadPool* pool = nullptr);

/// View-B variant of C = A^T * B (A is small and still transposed).
void GemmTransA(const DenseMatrix& a, ConstMatrixView b, DenseMatrix* c,
                ThreadPool* pool = nullptr);

/// Both-views variant of C = A^T * B (e.g. Y^T Y over an mmap-backed
/// artifact view); streams rows of A like the view-A form, same
/// accumulation order.
void GemmTransA(ConstMatrixView a, ConstMatrixView b, DenseMatrix* c,
                ThreadPool* pool = nullptr);

/// C = A * B^T. C resized to (A.rows, B.rows).
void GemmTransB(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* c,
                ThreadPool* pool = nullptr);

/// C = alpha * A * B^T + beta * C0, with C0 given (C resized; used for
/// residuals Sf = Xf Y^T - F' in one pass: alpha=1, beta=-1, c0=F').
void GemmTransBAddScaled(const DenseMatrix& a, const DenseMatrix& b,
                         double alpha, const DenseMatrix& c0, double beta,
                         DenseMatrix* c, ThreadPool* pool = nullptr);

/// Z = Xb (Y^T Y), the link-candidate rows of Equation 22: p(u, w) =
/// Xf[u] . Z[w]. The one derivation every link scorer shares (EdgeScorer,
/// QueryEngine, and the shard split / local fleet, which slice rows of it),
/// so sharded answers stay bitwise the unsharded ones. Header-inline so the
/// serving layer can use it without linking pane_core, and so it adds no
/// code to gemm.cc.
inline void LinkCandidateRows(ConstMatrixView xb, ConstMatrixView y,
                              DenseMatrix* z) {
  DenseMatrix gram;  // Y^T Y, k/2 x k/2
  GemmTransA(y, y, &gram);
  Gemm(xb, gram, z);
}

}  // namespace pane
