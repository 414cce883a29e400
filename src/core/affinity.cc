#include "src/core/affinity.h"

#include <cmath>
#include <utility>

#include "src/common/logging.h"
#include "src/matrix/spmm.h"

namespace pane {
namespace {

Status ValidateApmiInputs(const ApmiInputs& in) {
  if (in.p == nullptr || in.p_transposed == nullptr || in.r == nullptr) {
    return Status::InvalidArgument("APMI inputs must be non-null");
  }
  if (in.p->rows() != in.p->cols()) {
    return Status::InvalidArgument("P must be square");
  }
  if (in.p->rows() != in.r->rows()) {
    return Status::InvalidArgument("P and R row counts differ");
  }
  if (in.alpha <= 0.0 || in.alpha >= 1.0) {
    return Status::InvalidArgument("alpha must be in (0, 1)");
  }
  if (in.t < 1) return Status::InvalidArgument("t must be >= 1");
  return Status::OK();
}

// acc = alpha * sum_{l=0..t} (1-alpha)^l M^l R0 with dense term / next /
// acc intermediates — the memory shape the panel-streamed engine exists to
// avoid.
void TruncatedSeries(const CsrMatrix& m, const CsrMatrix& r0, double alpha,
                     int t, DenseMatrix* acc) {
  DenseMatrix term = r0.ToDense();
  acc->Resize(term.rows(), term.cols());
  acc->Axpy(alpha, term);
  DenseMatrix next;
  for (int l = 1; l <= t; ++l) {
    SpMMAddScaled(m, term, 1.0 - alpha, term, 0.0, &next);
    std::swap(term, next);
    acc->Axpy(alpha, term);
  }
}

}  // namespace

int ComputeIterationCount(double epsilon, double alpha) {
  PANE_CHECK(epsilon > 0.0 && epsilon < 1.0) << "epsilon must be in (0, 1)";
  PANE_CHECK(alpha > 0.0 && alpha < 1.0) << "alpha must be in (0, 1)";
  const double t = std::log(epsilon) / std::log(1.0 - alpha) - 1.0;
  const int rounded = static_cast<int>(std::ceil(t - 1e-9));
  return rounded < 1 ? 1 : rounded;
}

Result<ProbabilityMatrices> ApmiProbabilities(const ApmiInputs& inputs) {
  PANE_RETURN_NOT_OK(ValidateApmiInputs(inputs));
  const CsrMatrix rr = inputs.r->RowNormalized();
  const CsrMatrix rc = inputs.r->ColNormalized();
  ProbabilityMatrices probs;
  TruncatedSeries(*inputs.p, rr, inputs.alpha, inputs.t, &probs.pf);
  TruncatedSeries(*inputs.p_transposed, rc, inputs.alpha, inputs.t, &probs.pb);
  return probs;
}

AffinityMatrices SpmiFromProbabilities(const ProbabilityMatrices& probs) {
  const int64_t n = probs.pf.rows();
  const int64_t d = probs.pf.cols();
  AffinityMatrices out;
  out.forward.Resize(n, d);
  out.backward.Resize(n, d);

  // F' = ln(n * pf / colsum(pf) + 1); zero columns stay ln(1) = 0.
  const std::vector<double> col_sums = probs.pf.ColumnSums();
  for (int64_t i = 0; i < n; ++i) {
    const double* pf_row = probs.pf.Row(i);
    double* f_row = out.forward.Row(i);
    for (int64_t j = 0; j < d; ++j) {
      const double cs = col_sums[static_cast<size_t>(j)];
      f_row[j] = cs > 0.0 ? std::log1p(n * pf_row[j] / cs) : 0.0;
    }
  }

  // B' = ln(d * pb / rowsum(pb) + 1); zero rows stay 0.
  for (int64_t i = 0; i < n; ++i) {
    const double* pb_row = probs.pb.Row(i);
    double* b_row = out.backward.Row(i);
    double rs = 0.0;
    for (int64_t j = 0; j < d; ++j) rs += pb_row[j];
    if (rs > 0.0) {
      for (int64_t j = 0; j < d; ++j) {
        b_row[j] = std::log1p(d * pb_row[j] / rs);
      }
    }
  }
  return out;
}

Result<ProbabilityMatrices> ExactProbabilities(const AttributedGraph& graph,
                                               double alpha, int t) {
  const int64_t n = graph.num_nodes();
  if (n > 4000) {
    return Status::InvalidArgument(
        "ExactProbabilities is a dense O(n^2 d) reference; use APMI for "
        "graphs beyond a few thousand nodes");
  }
  const DenseMatrix p = graph.RandomWalkMatrix().ToDense();
  const DenseMatrix pt = p.Transposed();
  const DenseMatrix rr = graph.attributes().RowNormalized().ToDense();
  const DenseMatrix rc = graph.attributes().ColNormalized().ToDense();
  const int64_t d = graph.num_attributes();

  // acc = alpha * sum_{l=0..t} (1-alpha)^l M^l R0 via the scaled-term
  // recurrence term <- (1-alpha) * M * term.
  auto series = [&](const DenseMatrix& m, const DenseMatrix& r0) {
    DenseMatrix term = r0;  // (1-alpha)^l M^l R0
    DenseMatrix acc(n, d);
    acc.Axpy(alpha, term);
    DenseMatrix next(n, d);
    for (int l = 1; l <= t; ++l) {
      next.SetZero();
      // next = (1 - alpha) * m * term, naive dense multiply.
      for (int64_t i = 0; i < n; ++i) {
        double* next_row = next.Row(i);
        const double* m_row = m.Row(i);
        for (int64_t h = 0; h < n; ++h) {
          const double v = m_row[h];
          if (v == 0.0) continue;
          const double scaled = (1.0 - alpha) * v;
          const double* term_row = term.Row(h);
          for (int64_t j = 0; j < d; ++j) next_row[j] += scaled * term_row[j];
        }
      }
      term = next;
      acc.Axpy(alpha, term);
    }
    return acc;
  };

  ProbabilityMatrices probs;
  probs.pf = series(p, rr);
  probs.pb = series(pt, rc);
  return probs;
}

Result<AffinityMatrices> ExactAffinity(const AttributedGraph& graph,
                                       double alpha) {
  // Truncate at machine precision: (1 - alpha)^(t+1) <= 1e-14.
  const int t = ComputeIterationCount(1e-14, alpha);
  PANE_ASSIGN_OR_RETURN(ProbabilityMatrices probs,
                        ExactProbabilities(graph, alpha, t));
  return SpmiFromProbabilities(probs);
}

}  // namespace pane
