// Tests for the CCD refinement (Algorithms 4 and 8): monotone objective
// descent, incremental-residual correctness (Equations 18-20 vs full
// recomputation), bitwise agreement across pool sizes, and agreement of
// the Gram-form implementation with the per-coordinate reference sweep.
#include "src/core/ccd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/core/greedy_init.h"
#include "src/matrix/gemm.h"
#include "src/matrix/vector_ops.h"
#include "src/parallel/thread_pool.h"
#include "test_util.h"

namespace pane {
namespace {

using testing::MakeInitOptions;

AffinitySlabs TestAffinity(int64_t n = 250, uint64_t seed = 51) {
  return testing::GraphAffinity(testing::SmallSbm(seed, n));
}

// The per-coordinate CCD of Algorithm 4, as written: every coordinate of
// a node row takes a Dot and an Axpy over its d-long residual row
// (Equations 13-14 / 16 / 18-19), every coordinate of an attribute row a
// Dot and an Axpy over its n-long residual columns (Equations 15 / 17 /
// 20). CcdRefine reassociates this arithmetic into Gram form; this is the
// oracle it is checked against. Appends the objective after every sweep.
void ReferenceCcd(EmbeddingState* state, int iterations,
                  std::vector<double>* objectives) {
  constexpr double kFloor = 1e-300;
  const int64_t n = state->xf.rows();
  const int64_t d = state->y.rows();
  const int64_t h = state->xf.cols();
  std::vector<double> sf_col(static_cast<size_t>(n));
  std::vector<double> sb_col(static_cast<size_t>(n));
  for (int iter = 0; iter < iterations; ++iter) {
    const DenseMatrix yt = state->y.Transposed();
    for (int64_t vi = 0; vi < n; ++vi) {
      double* xf_row = state->xf.Row(vi);
      double* xb_row = state->xb.Row(vi);
      double* sf_row = state->sf.Row(vi);
      double* sb_row = state->sb.Row(vi);
      for (int64_t l = 0; l < h; ++l) {
        const double* yl = yt.Row(l);
        const double denom = SquaredNorm(yl, d);
        if (denom < kFloor) continue;
        const double mu_f = Dot(sf_row, yl, d) / denom;
        const double mu_b = Dot(sb_row, yl, d) / denom;
        xf_row[l] -= mu_f;
        xb_row[l] -= mu_b;
        Axpy(-mu_f, yl, sf_row, d);
        Axpy(-mu_b, yl, sb_row, d);
      }
    }
    const DenseMatrix xft = state->xf.Transposed();
    const DenseMatrix xbt = state->xb.Transposed();
    for (int64_t c = 0; c < d; ++c) {
      for (int64_t i = 0; i < n; ++i) {
        sf_col[static_cast<size_t>(i)] = state->sf.Row(i)[c];
        sb_col[static_cast<size_t>(i)] = state->sb.Row(i)[c];
      }
      double* y_row = state->y.Row(c);
      for (int64_t l = 0; l < h; ++l) {
        const double* xfl = xft.Row(l);
        const double* xbl = xbt.Row(l);
        const double denom = SquaredNorm(xfl, n) + SquaredNorm(xbl, n);
        if (denom < kFloor) continue;
        const double mu_y =
            (Dot(xfl, sf_col.data(), n) + Dot(xbl, sb_col.data(), n)) / denom;
        y_row[l] -= mu_y;
        Axpy(-mu_y, xfl, sf_col.data(), n);
        Axpy(-mu_y, xbl, sb_col.data(), n);
      }
      for (int64_t i = 0; i < n; ++i) {
        state->sf.Row(i)[c] = sf_col[static_cast<size_t>(i)];
        state->sb.Row(i)[c] = sb_col[static_cast<size_t>(i)];
      }
    }
    objectives->push_back(Objective(*state));
  }
}

// max |a - b| over max |b|: the factors' disagreement relative to their
// scale.
double RelativeMaxDiff(const DenseMatrix& a, const DenseMatrix& b) {
  double scale = 0.0;
  for (int64_t i = 0; i < b.rows(); ++i) {
    for (int64_t j = 0; j < b.cols(); ++j) {
      scale = std::max(scale, std::fabs(b(i, j)));
    }
  }
  return a.MaxAbsDiff(b) / std::max(scale, 1e-300);
}

bool BitwiseEqual(const double* a, const double* b, int64_t count) {
  return std::memcmp(a, b, static_cast<size_t>(count) * sizeof(double)) == 0;
}

void ExpectStatesBitwiseEqual(const EmbeddingState& a, const EmbeddingState& b,
                              const std::string& what) {
  EXPECT_TRUE(BitwiseEqual(a.xf.data(), b.xf.data(), a.xf.size())) << what;
  EXPECT_TRUE(BitwiseEqual(a.xb.data(), b.xb.data(), a.xb.size())) << what;
  EXPECT_TRUE(BitwiseEqual(a.y.data(), b.y.data(), a.y.size())) << what;
  ASSERT_EQ(a.sf.rows(), b.sf.rows());
  ASSERT_EQ(a.sf.cols(), b.sf.cols());
  const int64_t cells = a.sf.rows() * a.sf.cols();
  EXPECT_TRUE(BitwiseEqual(a.sf.data(), b.sf.data(), cells)) << what;
  EXPECT_TRUE(BitwiseEqual(a.sb.data(), b.sb.data(), cells)) << what;
}

// Uniform random n x d affinity slabs.
AffinitySlabs RandomAffinity(int64_t n, int64_t d, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix forward(n, d), backward(n, d);
  forward.FillUniform(&rng, 0.0, 1.0);
  backward.FillUniform(&rng, 0.0, 1.0);
  AffinitySlabs affinity;
  affinity.forward = std::move(forward);
  affinity.backward = std::move(backward);
  return affinity;
}

double ResidualConsistencyError(const EmbeddingState& s,
                                const AffinitySlabs& affinity) {
  DenseMatrix sf_expected, sb_expected;
  GemmTransBAddScaled(s.xf, s.y, 1.0, affinity.forward.ToDense().ValueOrDie(),
                      -1.0, &sf_expected);
  GemmTransBAddScaled(s.xb, s.y, 1.0,
                      affinity.backward.ToDense().ValueOrDie(), -1.0,
                      &sb_expected);
  return s.sf.MaxAbsDiff(sf_expected) + s.sb.MaxAbsDiff(sb_expected);
}

TEST(CcdTest, ObjectiveNonIncreasingFromRandomInit) {
  const AffinitySlabs affinity = TestAffinity();
  auto state =
      RandomInit(affinity, MakeInitOptions(16, 5, nullptr, /*seed=*/5))
          .ValueOrDie();
  std::vector<double> trace;
  trace.push_back(Objective(state));
  CcdOptions options;
  options.iterations = 8;
  options.objective_trace = &trace;
  ASSERT_TRUE(CcdRefine(&state, options).ok());
  ASSERT_EQ(trace.size(), 9u);
  for (size_t i = 1; i < trace.size(); ++i) {
    // Exact coordinate minimization can never increase the objective.
    EXPECT_LE(trace[i], trace[i - 1] * (1.0 + 1e-12)) << "iteration " << i;
  }
  EXPECT_LT(trace.back(), 0.9 * trace.front());
}

TEST(CcdTest, ObjectiveNonIncreasingFromGreedyInit) {
  const AffinitySlabs affinity = TestAffinity();
  auto state = GreedyInit(affinity, MakeInitOptions(16, 6)).ValueOrDie();
  std::vector<double> trace;
  trace.push_back(Objective(state));
  CcdOptions options;
  options.iterations = 5;
  options.objective_trace = &trace;
  ASSERT_TRUE(CcdRefine(&state, options).ok());
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i], trace[i - 1] * (1.0 + 1e-12));
  }
}

TEST(CcdTest, IncrementalResidualsMatchRecomputation) {
  // The dynamic maintenance of Equations (18)-(20) must leave Sf, Sb equal
  // to a from-scratch Xf Y^T - F' at every exit point.
  const AffinitySlabs affinity = TestAffinity();
  auto state = GreedyInit(affinity, MakeInitOptions(24, 6)).ValueOrDie();
  CcdOptions options;
  options.iterations = 3;
  ASSERT_TRUE(CcdRefine(&state, options).ok());
  EXPECT_LT(ResidualConsistencyError(state, affinity), 1e-8);
}

TEST(CcdTest, PoolSizesAgreeBitwise) {
  // Every element's accumulation order is fixed, whoever computes it, so
  // the factors and residuals are bitwise identical for every pool size.
  const AffinitySlabs affinity = TestAffinity();
  const EmbeddingState seed =
      GreedyInit(affinity, MakeInitOptions(16, 6)).ValueOrDie();
  EmbeddingState serial = seed;
  CcdOptions options;
  options.iterations = 4;
  ASSERT_TRUE(CcdRefine(&serial, options).ok());
  for (const int threads : {2, 3, 4}) {
    ThreadPool pool(threads);
    EmbeddingState parallel = seed;
    options.pool = &pool;
    ASSERT_TRUE(CcdRefine(&parallel, options).ok());
    ExpectStatesBitwiseEqual(parallel, serial,
                             "pool of " + std::to_string(threads));
  }
  EXPECT_LT(ResidualConsistencyError(serial, affinity), 1e-8);
}

TEST(CcdTest, MatchesPerCoordinateReference) {
  // The Gram form only reassociates the per-coordinate sweep's sums, so
  // sweep by sweep the objectives, and at the end the factors, agree with
  // the reference to within rounding: kRelTol relative to each quantity's
  // scale. h covers single-coordinate, sub-vector and multi-tile widths;
  // n = 53 and d = 37 are multiples of no tile width (4, 8 or 12), so
  // every row and column tail of the kernel runs.
  constexpr double kRelTol = 1e-11;
  constexpr int kSweeps = 4;
  const AffinitySlabs affinity = RandomAffinity(53, 37, 61);
  for (const int h : {1, 3, 8, 12, 32}) {
    const EmbeddingState seed =
        RandomInit(affinity, MakeInitOptions(2 * h, 4, nullptr, /*seed=*/7))
            .ValueOrDie();
    EmbeddingState expected = seed;
    std::vector<double> expected_objectives;
    ReferenceCcd(&expected, kSweeps, &expected_objectives);

    ThreadPool pool(3);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      EmbeddingState actual = seed;
      std::vector<double> objectives;
      CcdOptions options;
      options.iterations = kSweeps;
      options.pool = p;
      options.objective_trace = &objectives;
      ASSERT_TRUE(CcdRefine(&actual, options).ok());
      const std::string what = "h=" + std::to_string(h) +
                               (p != nullptr ? " pool" : " serial");
      ASSERT_EQ(objectives.size(), expected_objectives.size()) << what;
      for (size_t s = 0; s < objectives.size(); ++s) {
        EXPECT_NEAR(objectives[s], expected_objectives[s],
                    kRelTol * expected_objectives[s])
            << what << " sweep " << s;
      }
      EXPECT_LT(RelativeMaxDiff(actual.xf, expected.xf), kRelTol) << what;
      EXPECT_LT(RelativeMaxDiff(actual.xb, expected.xb), kRelTol) << what;
      EXPECT_LT(RelativeMaxDiff(actual.y, expected.y), kRelTol) << what;
      EXPECT_LT(ResidualConsistencyError(actual, affinity), 1e-8) << what;
    }
  }
}

TEST(CcdTest, RankDeficientCoordinatesStayPut) {
  // k/2 > d: with columns 5..7 of Xf, Xb and Y identically zero, both
  // phases meet denominators below the floor there, so those coordinates'
  // updates are exactly 0 and they stay exactly zero — while the others
  // still agree with the per-coordinate reference.
  constexpr int64_t kRank = 5;
  const AffinitySlabs affinity = RandomAffinity(41, 6, 63);
  EmbeddingState seed =
      RandomInit(affinity, MakeInitOptions(16, 4, nullptr, /*seed=*/9))
          .ValueOrDie();
  for (DenseMatrix* m : {&seed.xf, &seed.xb, &seed.y}) {
    for (int64_t i = 0; i < m->rows(); ++i) {
      for (int64_t l = kRank; l < m->cols(); ++l) (*m)(i, l) = 0.0;
    }
  }
  ASSERT_TRUE(BuildResidualSlab(seed.xf, seed.y, affinity.forward, &seed.sf)
                  .ok());
  ASSERT_TRUE(BuildResidualSlab(seed.xb, seed.y, affinity.backward, &seed.sb)
                  .ok());
  EmbeddingState expected = seed;
  std::vector<double> expected_objectives;
  ReferenceCcd(&expected, 3, &expected_objectives);

  EmbeddingState actual = seed;
  CcdOptions options;
  options.iterations = 3;
  ASSERT_TRUE(CcdRefine(&actual, options).ok());
  for (const DenseMatrix* m : {&actual.xf, &actual.xb, &actual.y}) {
    for (int64_t i = 0; i < m->rows(); ++i) {
      for (int64_t l = 0; l < m->cols(); ++l) {
        ASSERT_TRUE(std::isfinite((*m)(i, l)));
        if (l >= kRank) {
          ASSERT_EQ((*m)(i, l), 0.0) << "row " << i;
        }
      }
    }
  }
  EXPECT_LT(RelativeMaxDiff(actual.xf, expected.xf), 1e-11);
  EXPECT_LT(RelativeMaxDiff(actual.y, expected.y), 1e-11);
  EXPECT_NEAR(Objective(actual), expected_objectives.back(),
              1e-11 * expected_objectives.back());
}

TEST(CcdTest, ZeroIterationsIsNoop) {
  const AffinitySlabs affinity = TestAffinity(120, 52);
  auto state = GreedyInit(affinity, MakeInitOptions(8, 4)).ValueOrDie();
  const DenseMatrix xf_before = state.xf;
  CcdOptions options;
  options.iterations = 0;
  ASSERT_TRUE(CcdRefine(&state, options).ok());
  EXPECT_EQ(state.xf.MaxAbsDiff(xf_before), 0.0);
}

TEST(CcdTest, HandlesRankDeficientYColumns) {
  // k/2 > d forces zero Y columns; updates on those coordinates must be
  // skipped rather than divide by zero.
  const AffinitySlabs affinity = RandomAffinity(40, 3, 53);
  // k/2 = 8 > d = 3.
  auto state = GreedyInit(affinity, MakeInitOptions(16, 4)).ValueOrDie();
  CcdOptions options;
  options.iterations = 3;
  ASSERT_TRUE(CcdRefine(&state, options).ok());
  for (int64_t i = 0; i < state.xf.rows(); ++i) {
    for (int64_t j = 0; j < state.xf.cols(); ++j) {
      EXPECT_TRUE(std::isfinite(state.xf(i, j)));
    }
  }
}

TEST(CcdTest, RejectsInconsistentShapes) {
  EmbeddingState state;
  state.xf.Resize(10, 4);
  state.xb.Resize(10, 4);
  state.y.Resize(5, 4);
  state.sf.Resize(10, 5);
  state.sb.Resize(9, 5);  // wrong
  CcdOptions options;
  EXPECT_FALSE(CcdRefine(&state, options).ok());
}

TEST(CcdTest, GreedyBeatsRandomAtEqualIterations) {
  // The Section 5.7 ablation in miniature: same CCD budget, greedy seeding
  // lands at a lower objective.
  const AffinitySlabs affinity = TestAffinity();
  auto greedy = GreedyInit(affinity, MakeInitOptions(16, 6)).ValueOrDie();
  auto random =
      RandomInit(affinity, MakeInitOptions(16, 5, nullptr, /*seed=*/5))
          .ValueOrDie();
  CcdOptions options;
  options.iterations = 2;
  ASSERT_TRUE(CcdRefine(&greedy, options).ok());
  ASSERT_TRUE(CcdRefine(&random, options).ok());
  EXPECT_LT(Objective(greedy), Objective(random));
}

}  // namespace
}  // namespace pane
