#include "src/core/embedding.h"

#include "src/matrix/gemm.h"

namespace pane {

EdgeScorer::EdgeScorer(const PaneEmbedding& embedding)
    : EdgeScorer(embedding.xf, embedding.xb, embedding.y) {}

EdgeScorer::EdgeScorer(const DenseMatrix& xf, const DenseMatrix& xb,
                       const DenseMatrix& y)
    : xf_(xf) {
  LinkCandidateRows(xb.View(), y.View(), &xb_gram_);
}

}  // namespace pane
