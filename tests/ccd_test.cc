// Tests for the CCD refinement (Algorithms 4 and 8): monotone objective
// descent, incremental-residual correctness (Equations 18-20 vs full
// recomputation), and serial/parallel agreement.
#include "src/core/ccd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "src/common/random.h"
#include "src/core/greedy_init.h"
#include "src/matrix/gemm.h"
#include "src/parallel/thread_pool.h"
#include "test_util.h"

namespace pane {
namespace {

using testing::MakeInitOptions;

AffinitySlabs TestAffinity(int64_t n = 250, uint64_t seed = 51) {
  return testing::GraphAffinity(testing::SmallSbm(seed, n));
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

TEST(CcdTest, ParallelMatchesSerialQuality) {
  const AffinitySlabs affinity = TestAffinity();
  auto serial_state = GreedyInit(affinity, MakeInitOptions(16, 6)).ValueOrDie();
  auto parallel_state = serial_state;  // identical starting point

  CcdOptions serial_options;
  serial_options.iterations = 4;
  ASSERT_TRUE(CcdRefine(&serial_state, serial_options).ok());

  ThreadPool pool(4);
  CcdOptions parallel_options;
  parallel_options.iterations = 4;
  parallel_options.pool = &pool;
  ASSERT_TRUE(CcdRefine(&parallel_state, parallel_options).ok());

  // Block-parallel CCD visits coordinates in a different order, so results
  // differ numerically but converge to the same quality (Section 4.2).
  const double serial_obj = Objective(serial_state);
  const double parallel_obj = Objective(parallel_state);
  EXPECT_NEAR(parallel_obj, serial_obj, 0.05 * serial_obj);
  EXPECT_LT(ResidualConsistencyError(parallel_state, affinity), 1e-8);
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
  Rng rng(53);
  DenseMatrix forward(40, 3), backward(40, 3);
  forward.FillUniform(&rng, 0.0, 1.0);
  backward.FillUniform(&rng, 0.0, 1.0);
  AffinitySlabs affinity;
  affinity.forward = std::move(forward);
  affinity.backward = std::move(backward);
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
