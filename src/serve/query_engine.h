// Batched execution of PANE's two prediction queries (attribute
// recommendation, Eq. 21; link recommendation, Eq. 22) plus pair scoring —
// the serving subsystem's compute layer.
//
// Exact mode scores query blocks against candidate tiles with the kernels
// of src/serve/dot_block.h, which reproduce vector_ops::Dot's
// accumulation pattern per (query, candidate) pair exactly (four stride-4
// partial sums combined as (s0+s1)+(s2+s3), then the ascending tail): a
// block kernel vectorizing across the queries of a block, and a rows
// kernel for a lone query that vectorizes across each row's partial sums.
// A served batch therefore returns bitwise the same scores as an offline
// per-pair Dot scan, independent of batch size, block width, or thread
// count. Selection is a per-query bounded heap under the
// deterministic ranking order of src/common/topk.h instead of a sort over
// all candidates.
//
// Parallelism: a batch with more queries than pool workers is split by
// query, each worker scanning every candidate for its queries. A batch of
// at most one query per worker — the usual batch of one from a connection
// with one request outstanding — is split by candidate instead: each
// worker scans one contiguous range of Y / Z rows for every query, and the
// per-range rankings are combined with MergeTopK. The ranges hold disjoint
// global ids and the ranking order is total, so the merged answer is
// exactly the serial one, byte for byte. (Under the query partition a
// worker with one query streams every candidate row for it, which is
// bandwidth-bound; past one query per worker the attribute scan is faster
// under the query partition, and from about three per worker both are.)
//
// Pruned mode routes the same queries through per-candidate-set IVF
// indexes (src/serve/ivf_index.h) for sublinear approximate retrieval
// with `nprobe` as the measured-recall knob.
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/topk.h"
#include "src/graph/graph.h"
#include "src/matrix/dense_matrix.h"
#include "src/obs/metrics.h"
#include "src/serve/ivf_index.h"
#include "src/store/shard_pages.h"

namespace pane {

class ThreadPool;

namespace serve {

class EmbeddingStore;

struct QueryEngineOptions {
  /// Parallelizes batches across queries, or across candidates when the
  /// batch has at most one query per worker (results are identical at any
  /// thread count). Null => serial. Queries must not be issued from a
  /// worker of this pool: the engine blocks in RunBlocks on it, and a
  /// nested RunBlocks on one pool can deadlock. That is why local-shard
  /// engines (BuildLocalShards), which run inside the router's fan-out
  /// workers, are built serial.
  ThreadPool* pool = nullptr;
  /// Caps the per-worker scoring scratch (transposed query panels + the
  /// query-block x candidate-tile score buffer + heaps): the candidate
  /// tile, then the query-block width, are reduced until workers x
  /// per-worker scratch fits the budget. 0 = unbounded (default shapes).
  int64_t memory_budget_mb = 0;
  /// Explicit query-block width override (tests); 0 = derive from the
  /// budget.
  int64_t query_block = 0;
  /// Explicit candidate-tile override (tests); 0 = derive from the budget.
  int64_t candidate_tile = 0;
  /// Optional registry for the engine's work metrics (pane_engine_*:
  /// tiles-scanned and IVF candidates scanned / pruned). Null disables
  /// them; the registry must outlive the engine. Recording goes through
  /// handles resolved at Create, so the engine itself stays immutable
  /// during queries (the TSan contract in query_engine.cc).
  obs::MetricsRegistry* metrics = nullptr;
};

/// Per-call scoring breakdown, filled by the top-k entry points when the
/// caller passes one: nanoseconds spent in tile dot-products (scan) and
/// per-tile heap selection (select), plus tile / IVF-candidate counts.
/// Atomic because range workers accumulate concurrently (once per range,
/// not per tile). The times sum worker time, not wall time: a batch of
/// one split over four workers adds all four workers' scan time.
struct EngineCallStats {
  std::atomic<int64_t> scan_ns{0};
  std::atomic<int64_t> select_ns{0};
  std::atomic<int64_t> tiles{0};
  std::atomic<int64_t> ivf_scanned{0};
  std::atomic<int64_t> ivf_pruned{0};
};

/// \brief One top-k request: the query node and how many results to keep.
struct TopKQuery {
  int64_t node = 0;
  int64_t k = 0;
};

class QueryEngine {
 public:
  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;
  QueryEngine(QueryEngine&&) = default;
  QueryEngine& operator=(QueryEngine&&) = default;

  /// Builds an engine over factor views (xf / xb: n x h, y: d x h, z: n x
  /// h or empty). The viewed storage must outlive the engine. When `z` is
  /// empty and xb / y are present, Z = Xb (Y^T Y) is derived here with the
  /// same kernels EdgeScorer uses, so link scores match it bitwise; when
  /// `z` is supplied (e.g. EdgeScorer::z()) it is used as-is.
  static Result<QueryEngine> Create(ConstMatrixView xf, ConstMatrixView xb,
                                    ConstMatrixView y, ConstMatrixView z,
                                    const QueryEngineOptions& options);

  /// Engine over a mapped artifact (factor blocks required; the store must
  /// outlive the engine). A sharded store dispatches to CreateSharded with
  /// the store's slices and shard meta.
  static Result<QueryEngine> Create(const EmbeddingStore& store,
                                    const QueryEngineOptions& options);

  /// Engine over one shard of a split embedding: the full query-side
  /// factors (xf / xb: n x h) plus the local candidate slices (y: rows
  /// [attr_begin, attr_end); z: rows [node_begin, node_end), either may be
  /// empty). The engine scans only its slices but accepts and returns
  /// *global* ids everywhere — queries, exclusion lists, pair ids, and
  /// top-k results — so the router merges per-shard answers without any
  /// id translation, and tie-breaks resolve in global-index order. `z`
  /// must be pre-derived from the full matrices (SplitEmbeddingArtifact /
  /// BuildLocalShards do this), never per shard, so link scores stay
  /// bitwise the unsharded engine's.
  static Result<QueryEngine> CreateSharded(ConstMatrixView xf,
                                           ConstMatrixView xb,
                                           ConstMatrixView y,
                                           ConstMatrixView z,
                                           const store::ShardMeta& shard,
                                           const QueryEngineOptions& options);

  // ---- Exact mode -------------------------------------------------------

  /// Batched Eq. 21 top-k attributes. `exclude` skips attributes already
  /// associated with the query node in that graph. Results per query are
  /// independent of the batch they ride in. A non-null
  /// `call_stats` receives the scan/select timing split for this call
  /// (timing is only taken when requested, so the default path pays no
  /// clock reads).
  std::vector<Ranking> TopKAttributes(
      const std::vector<TopKQuery>& queries,
      const AttributedGraph* exclude = nullptr,
      EngineCallStats* call_stats = nullptr) const;

  /// Batched Eq. 22 top-k link targets. The query node itself is always
  /// skipped; `exclude` also skips its existing out-neighbors.
  std::vector<Ranking> TopKTargets(
      const std::vector<TopKQuery>& queries,
      const AttributedGraph* exclude = nullptr,
      EngineCallStats* call_stats = nullptr) const;

  /// Batched pair scores: p(v, r) of Eq. 21 for (node, attribute) pairs.
  std::vector<double> AttributeScores(
      const std::vector<std::pair<int64_t, int64_t>>& pairs) const;

  /// Batched pair scores: p(u, w) of Eq. 22 for (source, target) pairs.
  std::vector<double> LinkScores(
      const std::vector<std::pair<int64_t, int64_t>>& pairs) const;

  // ---- Pruned (IVF) mode ------------------------------------------------

  /// Builds the cluster-pruned indexes (attributes over Y rows; links over
  /// Z rows when link scoring is available).
  Status BuildPrunedIndex(const IvfOptions& options);
  bool has_pruned_index() const {
    return !attr_index_.empty() || !link_index_.empty();
  }
  const IvfIndex& attr_index() const { return attr_index_; }
  const IvfIndex& link_index() const { return link_index_; }

  /// Writes the built pruned indexes as one checksummed container file
  /// ("attr." / "link." prefixed ivf.* streams) — crash-safe via temp +
  /// fsync + rename. Requires BuildPrunedIndex to have run.
  Status SavePrunedIndex(const std::string& path) const;

  /// Loads indexes written by SavePrunedIndex, replacing any built ones.
  /// Each index present in the file is validated against the engine's
  /// candidate set (candidate count and dimension) before adoption, so an
  /// index built for a different embedding is an InvalidArgument, not wrong
  /// answers.
  Status LoadPrunedIndex(const std::string& path);

  /// Approximate top-k through the IVF indexes; same exclusion / self-skip
  /// semantics as the exact calls, scores computed in single precision.
  /// The pruned path has no tile/select split, so `call_stats` gets the
  /// whole probe under scan_ns plus the scanned/pruned candidate counts.
  std::vector<Ranking> TopKAttributesPruned(
      const std::vector<TopKQuery>& queries, int64_t nprobe,
      const AttributedGraph* exclude = nullptr,
      EngineCallStats* call_stats = nullptr) const;
  std::vector<Ranking> TopKTargetsPruned(
      const std::vector<TopKQuery>& queries, int64_t nprobe,
      const AttributedGraph* exclude = nullptr,
      EngineCallStats* call_stats = nullptr) const;

  // ---- Introspection ----------------------------------------------------

  /// Global node count (xf is replicated in full on every shard).
  int64_t num_nodes() const { return xf_.rows(); }
  /// Factor dimensionality h.
  int64_t dim() const { return xf_.cols(); }
  /// Global attribute count — for a shard this is the plan's d, not the
  /// local slice height.
  int64_t num_attributes() const { return num_attributes_; }
  bool supports_attributes() const { return supports_attributes_; }
  bool supports_links() const { return supports_links_; }

  bool sharded() const { return sharded_; }
  /// Only meaningful when sharded() (an unsharded engine owns everything).
  const store::ShardMeta& shard() const { return shard_; }
  /// Whether this engine holds the candidate row for a global id — pair
  /// requests must be routed to the owner.
  bool OwnsAttribute(int64_t attribute) const {
    return !sharded_ || (attribute >= shard_.attr_begin &&
                         attribute < shard_.attr_end);
  }
  bool OwnsTarget(int64_t node) const {
    return !sharded_ ||
           (node >= shard_.node_begin && node < shard_.node_end);
  }

  /// The realized blocking (after the budget cap).
  int64_t query_block() const { return query_block_; }
  int64_t candidate_tile() const { return candidate_tile_; }

 private:
  QueryEngine() = default;

  void ResolveMetrics(obs::MetricsRegistry* registry);

  /// The two exact top-k families: Eq. 21 over Y rows, Eq. 22 over Z rows.
  enum class Family { kAttributes, kTargets };

  /// Exact top-k for one family: picks the query or the candidate
  /// partition (see the file comment) and runs ScanRange on each part.
  std::vector<Ranking> ExactTopK(Family family,
                                 const std::vector<TopKQuery>& queries,
                                 const AttributedGraph* exclude,
                                 EngineCallStats* call_stats) const;
  /// Ranks local candidate rows [c_begin, c_end) for queries [q_begin,
  /// q_end), writing query i's ranking over that range to (*out)[i]. Owns
  /// all its scratch, so ranges run concurrently.
  void ScanRange(Family family, const std::vector<TopKQuery>& queries,
                 const AttributedGraph* exclude, int64_t q_begin,
                 int64_t q_end, int64_t c_begin, int64_t c_end,
                 std::vector<Ranking>* out,
                 EngineCallStats* call_stats) const;
  /// Folds one range's counters into the registry handles (if any) and the
  /// caller's EngineCallStats (if any).
  void AccumulateRange(EngineCallStats* call_stats, int64_t scan_ns,
                       int64_t select_ns, int64_t tiles, int64_t ivf_scanned,
                       int64_t ivf_pruned) const;

  ConstMatrixView xf_, xb_, y_, z_;
  DenseMatrix z_owned_;  // backs z_ when derived at Create
  ThreadPool* pool_ = nullptr;
  int64_t query_block_ = 0;
  int64_t candidate_tile_ = 0;
  // Global id of local candidate row 0 (y_ / z_ respectively); 0 unsharded.
  int64_t attr_base_ = 0;
  int64_t link_base_ = 0;
  int64_t num_attributes_ = 0;  // global d
  // Capability is a *global* property: a shard whose local slice is empty
  // still "supports" the query family and answers with an empty ranking.
  bool supports_attributes_ = false;
  bool supports_links_ = false;
  bool sharded_ = false;
  store::ShardMeta shard_;
  IvfIndex attr_index_, link_index_;
  // Registry handles (null without a registry). The pointed-to metrics are
  // thread-safe, so recording from const query paths keeps the engine's
  // immutability contract.
  obs::Counter* tiles_total_ = nullptr;
  obs::Counter* ivf_scanned_total_ = nullptr;
  obs::Counter* ivf_pruned_total_ = nullptr;
  obs::Gauge* tiles_gauge_ = nullptr;
  obs::Gauge* pruned_gauge_ = nullptr;
};

/// \brief Sorted ids to skip for one query: the non-zero columns of
/// `row` (the same entries CsrMatrix::At reports non-zero). Exposed for
/// the pruned path and tests.
std::vector<int64_t> ExcludedIds(const CsrMatrix& matrix, int64_t row);

}  // namespace serve
}  // namespace pane
