// Ablation (Section 3.1's motivating design choice): deterministic APMI vs
// estimating the affinity probabilities by actually sampling random walks,
// at increasing walk budgets n_r. Prints, per budget, the sampling time and
// the max/mean error against the near-exact series, next to APMI's time and
// truncation error. Expected shape: APMI reaches ~1e-2 error (eps-bounded)
// in a fraction of the time Monte-Carlo needs for even 10x that error —
// sampling error decays only as 1/sqrt(n_r).
#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "src/common/timer.h"
#include "src/core/affinity.h"
#include "src/datasets/registry.h"
#include "src/graph/random_walk.h"

namespace pane {
namespace {

struct ErrorStats {
  double max_err = 0.0;
  double mean_err = 0.0;
};

ErrorStats Compare(const DenseMatrix& estimate, const DenseMatrix& reference) {
  ErrorStats stats;
  double total = 0.0;
  for (int64_t i = 0; i < estimate.rows(); ++i) {
    for (int64_t j = 0; j < estimate.cols(); ++j) {
      const double err = std::fabs(estimate(i, j) - reference(i, j));
      stats.max_err = std::max(stats.max_err, err);
      total += err;
    }
  }
  stats.mean_err = total / static_cast<double>(estimate.size());
  return stats;
}

void Run() {
  bench::PrintHeader(
      "Ablation: APMI (Algorithm 2) vs Monte-Carlo walk sampling",
      "forward-probability error vs near-exact series; APMI's determinism "
      "is the paper's Section 3.1 design choice");

  const AttributedGraph g = *MakeDatasetByName("cora", bench::BenchScale());
  const double alpha = 0.5;

  // Near-exact reference: APMI truncated at machine precision.
  const CsrMatrix p = g.RandomWalkMatrix();
  const CsrMatrix pt = p.Transposed();
  ApmiInputs inputs;
  inputs.p = &p;
  inputs.p_transposed = &pt;
  inputs.r = &g.attributes();
  inputs.alpha = alpha;
  inputs.t = ComputeIterationCount(1e-12, alpha);
  const auto reference = ApmiProbabilities(inputs).ValueOrDie();

  bench::PrintRow("method", {"time", "max err", "mean err"});

  // APMI at the paper's default eps.
  {
    ApmiInputs fast = inputs;
    fast.t = ComputeIterationCount(0.015, alpha);
    WallTimer timer;
    const auto probs = ApmiProbabilities(fast).ValueOrDie();
    const double seconds = timer.ElapsedSeconds();
    const ErrorStats err = Compare(probs.pf, reference.pf);
    bench::PrintRow("APMI eps=0.015",
                    {bench::TimeCell(seconds),
                     bench::Cell(err.max_err), bench::Cell(err.mean_err)});
  }

  // Monte-Carlo at increasing walk budgets.
  for (const int64_t walks : {int64_t{10}, int64_t{100}, int64_t{1000},
                              int64_t{10000}}) {
    WalkSimulator sim(g, alpha, /*seed=*/5);
    WallTimer timer;
    const DenseMatrix pf = sim.EstimateForwardProbabilities(walks);
    const double seconds = timer.ElapsedSeconds();
    const ErrorStats err = Compare(pf, reference.pf);
    bench::PrintRow("MC n_r=" + std::to_string(walks),
                    {bench::TimeCell(seconds),
                     bench::Cell(err.max_err), bench::Cell(err.mean_err)});
  }

  std::printf(
      "\n(MC error ~ 1/sqrt(n_r): the 1e-2 accuracy APMI hits in "
      "milliseconds costs Monte-Carlo tens of thousands of walks per "
      "node.)\n");
}

}  // namespace
}  // namespace pane

int main() {
  pane::Run();
  return 0;
}
