// Tests for logistic regression, the edge-feature scoring convention, and
// top-k retrieval through the serving engine.
#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/core/pane.h"
#include "src/serve/query_engine.h"
#include "src/tasks/link_prediction.h"
#include "src/tasks/logistic.h"
#include "src/tasks/node_classification.h"
#include "test_util.h"

namespace pane {
namespace {

TEST(LogisticRegressionTest, SeparableData) {
  DenseMatrix features({{2, 0}, {3, 1}, {4, 0}, {0, 2}, {1, 3}, {0, 4}});
  std::vector<int> labels = {1, 1, 1, 0, 0, 0};
  LogisticRegression model;
  ASSERT_TRUE(model.Train(features, labels).ok());
  for (int64_t i = 0; i < 6; ++i) {
    const double p = model.Predict(features.Row(i));
    if (labels[static_cast<size_t>(i)] == 1) {
      EXPECT_GT(p, 0.5) << "row " << i;
    } else {
      EXPECT_LT(p, 0.5) << "row " << i;
    }
  }
}

TEST(LogisticRegressionTest, ProbabilitiesInUnitInterval) {
  Rng rng(1);
  DenseMatrix features(50, 4);
  features.FillGaussian(&rng);
  std::vector<int> labels(50);
  for (size_t i = 0; i < 50; ++i) labels[i] = rng.Bernoulli(0.5) ? 1 : 0;
  LogisticRegression model;
  ASSERT_TRUE(model.Train(features, labels).ok());
  for (int64_t i = 0; i < 50; ++i) {
    const double p = model.Predict(features.Row(i));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(LogisticRegressionTest, Validation) {
  LogisticRegression model;
  DenseMatrix features(3, 2);
  EXPECT_FALSE(model.Train(features, {1, 0}).ok());  // size mismatch
  DenseMatrix empty(0, 2);
  EXPECT_FALSE(model.Train(empty, {}).ok());
}

TEST(EdgeFeatureTrainingTest, ImprovesLinkPredictionOverUntrained) {
  const AttributedGraph g = testing::SmallSbm(151, 400);
  const auto split = SplitEdges(g, 0.3, /*seed=*/7).ValueOrDie();
  PaneOptions options;
  options.k = 32;
  const auto embedding =
      Pane(options).Train(split.residual_graph).ValueOrDie();
  const DenseMatrix features =
      ConcatNormalizedEmbeddings(embedding.xf, embedding.xb);

  // Train weights on the residual graph's own edges + fresh negatives.
  std::vector<std::pair<int64_t, int64_t>> train_pos;
  for (int64_t u = 0; u < g.num_nodes(); ++u) {
    const auto row = split.residual_graph.adjacency().Row(u);
    for (int64_t p = 0; p < row.length; ++p) train_pos.emplace_back(u, row.cols[p]);
  }
  Rng rng(9);
  std::vector<std::pair<int64_t, int64_t>> train_neg;
  while (train_neg.size() < train_pos.size()) {
    const auto u = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(g.num_nodes())));
    const auto v = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(g.num_nodes())));
    if (u != v && g.adjacency().At(u, v) == 0.0) train_neg.emplace_back(u, v);
  }
  const auto weights =
      TrainEdgeFeatureWeights(features, train_pos, train_neg).ValueOrDie();

  const AucAp trained =
      EvaluateLinkPrediction(split, [&](int64_t u, int64_t v) {
        return EdgeFeatureScore(features, weights, u, v);
      });
  // Untrained (all-ones) weights = plain Hadamard sum.
  const std::vector<double> ones(static_cast<size_t>(features.cols()), 1.0);
  const AucAp untrained =
      EvaluateLinkPrediction(split, [&](int64_t u, int64_t v) {
        return EdgeFeatureScore(features, ones, u, v);
      });
  EXPECT_GT(trained.auc, 0.6);
  EXPECT_GE(trained.auc, untrained.auc - 0.02);
}

/// Exact engine over a trained embedding; it derives Z = Xb (Y^T Y) for
/// the link queries.
serve::QueryEngine MakeEngine(const PaneEmbedding& embedding) {
  auto engine = serve::QueryEngine::Create(
      embedding.xf.View(), embedding.xb.View(), embedding.y.View(),
      ConstMatrixView(), serve::QueryEngineOptions());
  EXPECT_TRUE(engine.ok()) << engine.status();
  return engine.MoveValueUnsafe();
}

TEST(TopKAttributesTest, RanksOwnedAttributesHighly) {
  const AttributedGraph g = testing::SmallSbm(152, 300);
  PaneOptions options;
  options.k = 32;
  const auto embedding = Pane(options).Train(g).ValueOrDie();
  const serve::QueryEngine engine = MakeEngine(embedding);
  // For most nodes, the #1 unexcluded attribute should come from the
  // node's own community block (homophilous construction).
  const int64_t d = g.num_attributes();
  const int32_t c = g.num_label_classes();
  int64_t in_block = 0;
  const int64_t checked = 50;
  for (int64_t v = 0; v < checked; ++v) {
    const Ranking top = engine.TopKAttributes({{v, 1}})[0];
    ASSERT_EQ(top.size(), 1u);
    const int32_t cv = g.labels()[static_cast<size_t>(v)][0];
    if (top[0].first >= cv * d / c && top[0].first < (cv + 1) * d / c) {
      ++in_block;
    }
  }
  EXPECT_GT(in_block, checked * 6 / 10);
}

TEST(TopKAttributesTest, ExcludeSkipsExisting) {
  const AttributedGraph g = testing::SmallSbm(153, 200);
  PaneOptions options;
  options.k = 16;
  const auto embedding = Pane(options).Train(g).ValueOrDie();
  const Ranking top = MakeEngine(embedding).TopKAttributes({{0, 10}}, &g)[0];
  for (const auto& [attr, score] : top) {
    EXPECT_EQ(g.attributes().At(0, attr), 0.0) << "attr " << attr;
  }
}

TEST(TopKTargetsTest, SortedAndExcludesSelfAndEdges) {
  const AttributedGraph g = testing::SmallSbm(154, 200);
  PaneOptions options;
  options.k = 16;
  const auto embedding = Pane(options).Train(g).ValueOrDie();
  const Ranking top = MakeEngine(embedding).TopKTargets({{0, 10}}, &g)[0];
  ASSERT_EQ(top.size(), 10u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].second, top[i].second);
  }
  for (const auto& [v, score] : top) {
    EXPECT_NE(v, 0);
    EXPECT_EQ(g.adjacency().At(0, v), 0.0);
  }
}

TEST(TopKTargetsTest, KLargerThanCandidates) {
  const AttributedGraph g = testing::Figure1Graph();
  PaneOptions options;
  options.k = 4;
  const auto embedding = Pane(options).Train(g).ValueOrDie();
  const Ranking top = MakeEngine(embedding).TopKTargets({{0, 100}})[0];
  EXPECT_EQ(top.size(), 5u);  // n - 1 candidates
}

}  // namespace
}  // namespace pane
