// Forward / backward node-attribute affinity (Section 2.2) shared
// definitions, plus the two dense references the panel-streamed engine
// (src/core/affinity_engine.h) is validated against: the exact power series
// (tests, the Table 2 running example) and APMI's unfused truncated series
// (Algorithm 2 up to line 5, the Lemma 3.1 oracle).
#pragma once

#include <cstdint>

#include "src/common/status.h"
#include "src/graph/graph.h"
#include "src/matrix/csr_matrix.h"
#include "src/matrix/dense_matrix.h"
#include "src/matrix/factor_slab.h"

namespace pane {

/// \brief The pair (F, B) of n x d affinity matrices.
struct AffinityMatrices {
  DenseMatrix forward;   // F (or its approximation F')
  DenseMatrix backward;  // B (or B')
};

/// \brief The pair (F', B') as FactorSlabs — the pipeline's native shape.
/// Under the in-RAM backing the factors are dense matrices; under a spill
/// backing they live in spill files and consumers stream row blocks. See
/// src/matrix/factor_slab.h.
struct AffinitySlabs {
  FactorSlab forward;
  FactorSlab backward;
};

/// \brief Iteration count t = ceil(log(eps) / log(1 - alpha) - 1), clamped
/// to >= 1 (Algorithm 1, line 1). Guarantees (1 - alpha)^(t+1) <= eps.
int ComputeIterationCount(double epsilon, double alpha);

/// \brief Probability matrices P_f, P_b of Equation (6), truncated at t.
struct ProbabilityMatrices {
  DenseMatrix pf;  // n x d, P_f^(t)
  DenseMatrix pb;  // n x d, P_b^(t)
};

struct ApmiInputs {
  /// Random-walk matrix P = D^-1 A (n x n, row-stochastic).
  const CsrMatrix* p = nullptr;
  /// P^T, prebuilt (backward iterations).
  const CsrMatrix* p_transposed = nullptr;
  /// Attribute matrix R (n x d).
  const CsrMatrix* r = nullptr;
  double alpha = 0.5;
  int t = 5;
};

/// \brief APMI's truncated probability matrices before the SPMI transform
/// (Algorithm 2 up to line 5), evaluated with dense term / next / sum
/// intermediates. This unfused path shares no panel logic with the engine,
/// so it is the engine's bitwise oracle (with SpmiFromProbabilities) and
/// the subject of the Lemma 3.1 tests.
Result<ProbabilityMatrices> ApmiProbabilities(const ApmiInputs& inputs);

/// \brief Turns probability matrices into SPMI affinity (Equations 2-3 /
/// lines 6-8 of Algorithm 2): column-normalize pf and row-normalize pb,
/// then F' = ln(n * pf_hat + 1), B' = ln(d * pb_hat + 1).
///
/// Natural log is used; the base only scales the objective uniformly.
AffinityMatrices SpmiFromProbabilities(const ProbabilityMatrices& probs);

/// \brief Exact affinity via dense power-series evaluation: Equation (5)
/// truncated at machine precision. O(n^2 d) time, O(n^2) memory — reference
/// implementation for small graphs (tests, Table 2), written against dense
/// arithmetic so it shares no kernels with the CSR production path.
Result<AffinityMatrices> ExactAffinity(const AttributedGraph& graph,
                                       double alpha);

/// \brief Exact truncated probability matrices (same dense path), exposed so
/// tests can check the Lemma 3.1 bounds at a specific t.
Result<ProbabilityMatrices> ExactProbabilities(const AttributedGraph& graph,
                                               double alpha, int t);

}  // namespace pane
