#include "src/serve/query_engine.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <vector>

#include "src/common/logging.h"
#include "src/common/timer.h"
#include "src/matrix/gemm.h"
#include "src/matrix/vector_ops.h"
#include "src/parallel/thread_pool.h"
#include "src/serve/dot_block.h"
#include "src/serve/embedding_store.h"

namespace pane {
namespace serve {
namespace {

constexpr int64_t kDefaultQueryBlock = 64;
constexpr int64_t kDefaultCandidateTile = 1024;
constexpr int64_t kMinCandidateTile = 64;

/// Copies the factor rows of queries [begin, begin + b) into the
/// width-`width` transposed panel the block kernel consumes; columns
/// [b, width) are the zero padding the fixed-width kernels need.
void GatherTransposed(ConstMatrixView factor,
                      const std::vector<TopKQuery>& queries, int64_t begin,
                      int64_t b, int64_t width, double* qt) {
  if (b < width) {
    std::fill(qt, qt + factor.cols() * width, 0.0);
  }
  for (int64_t q = 0; q < b; ++q) {
    const double* row = factor.Row(queries[static_cast<size_t>(begin + q)].node);
    for (int64_t t = 0; t < factor.cols(); ++t) qt[t * width + q] = row[t];
  }
}

struct BlockShape {
  int64_t query_block = kDefaultQueryBlock;
  int64_t candidate_tile = kDefaultCandidateTile;
};

/// Applies explicit overrides, then shrinks the candidate tile and the
/// query block (in that order) until every worker's scratch — two
/// transposed panels plus the query-block x candidate-tile score buffer —
/// fits the budget. The query block never exceeds kMaxDotBlockWidth.
BlockShape DeriveBlockShape(const QueryEngineOptions& options, int64_t h) {
  BlockShape shape;
  if (options.query_block > 0) shape.query_block = options.query_block;
  if (options.candidate_tile > 0) shape.candidate_tile = options.candidate_tile;
  if (options.memory_budget_mb > 0) {
    const int64_t workers =
        options.pool != nullptr ? options.pool->num_threads() : 1;
    const int64_t budget =
        (options.memory_budget_mb << 20) / std::max<int64_t>(1, workers);
    const auto scratch_bytes = [h](const BlockShape& s) {
      return (s.query_block * (2 * h + s.candidate_tile + 8)) *
             static_cast<int64_t>(sizeof(double));
    };
    while (scratch_bytes(shape) > budget &&
           shape.candidate_tile > kMinCandidateTile) {
      shape.candidate_tile /= 2;
    }
    while (scratch_bytes(shape) > budget && shape.query_block > 1) {
      shape.query_block /= 2;
    }
  }
  // Wider panels have no compile-time kernel (see PadDotBlockWidth).
  shape.query_block =
      std::clamp<int64_t>(shape.query_block, 1, kMaxDotBlockWidth);
  shape.candidate_tile = std::max<int64_t>(kMinCandidateTile,
                                           shape.candidate_tile);
  return shape;
}

/// Per-query selection state shared by the two top-k scans: the bounded
/// heap plus the cached worst-kept pair used as a scan threshold
/// (-infinity until the heap fills, so everything is offered).
struct SelectState {
  TopKHeap heap;
  std::vector<int64_t> excluded;  // sorted ids to skip (incl. self for links)
  size_t excl_pos = 0;
  double thr_score = 0.0;
  int64_t thr_index = 0;

  explicit SelectState(int64_t k) : heap(k) {
    thr_score = -std::numeric_limits<double>::infinity();
    thr_index = std::numeric_limits<int64_t>::max();
  }
};

/// Scans scores of candidates [c0, c0 + len) for one query (`row[j]` is
/// candidate c0 + j), skipping excluded ids via segment bounds so the hot
/// loop is one compare per candidate. The threshold mirrors the heap's
/// accept rule exactly, so filtering never drops an acceptable candidate.
void ScanTile(const double* row, int64_t c0, int64_t len, SelectState* st) {
  double thr_score = st->thr_score;
  int64_t thr_index = st->thr_index;
  const std::vector<int64_t>& ex = st->excluded;
  size_t pos = st->excl_pos;
  int64_t j = 0;
  while (j < len) {
    while (pos < ex.size() && ex[pos] < c0 + j) ++pos;
    int64_t seg_end = len;
    bool skip_one = false;
    if (pos < ex.size() && ex[pos] < c0 + len) {
      seg_end = ex[pos] - c0;
      skip_one = true;
    }
    for (; j < seg_end; ++j) {
      const double s = row[j];
      if (s > thr_score || (s == thr_score && c0 + j < thr_index)) {
        st->heap.Offer(c0 + j, s);
        if (st->heap.AtCapacity()) {
          thr_score = st->heap.Worst().second;
          thr_index = st->heap.Worst().first;
        }
      }
    }
    if (skip_one) {
      ++j;
      ++pos;
    }
  }
  st->thr_score = thr_score;
  st->thr_index = thr_index;
  st->excl_pos = pos;
}

/// Sorted insert of the query node into its exclusion list (the link
/// scan's always-skip-self rule, folded into the segment walk).
void InsertSelf(std::vector<int64_t>* excluded, int64_t node) {
  const auto it = std::lower_bound(excluded->begin(), excluded->end(), node);
  if (it == excluded->end() || *it != node) excluded->insert(it, node);
}

}  // namespace

std::vector<int64_t> ExcludedIds(const CsrMatrix& matrix, int64_t row) {
  const CsrMatrix::RowView view = matrix.Row(row);
  std::vector<int64_t> ids;
  ids.reserve(static_cast<size_t>(view.length));
  for (int64_t p = 0; p < view.length; ++p) {
    if (view.vals[p] != 0.0) ids.push_back(view.cols[p]);
  }
  return ids;  // CSR columns are sorted, so the list is ascending
}

Result<QueryEngine> QueryEngine::Create(ConstMatrixView xf,
                                        ConstMatrixView xb, ConstMatrixView y,
                                        ConstMatrixView z,
                                        const QueryEngineOptions& options) {
  if (xf.rows() == 0 || xf.cols() == 0) {
    return Status::InvalidArgument("QueryEngine requires a forward factor");
  }
  const int64_t h = xf.cols();
  if (xb.rows() > 0 && (xb.rows() != xf.rows() || xb.cols() != h)) {
    return Status::InvalidArgument("QueryEngine xb shape mismatch");
  }
  if (y.rows() > 0 && y.cols() != h) {
    return Status::InvalidArgument("QueryEngine y shape mismatch");
  }
  if (z.rows() > 0 && (z.rows() != xf.rows() || z.cols() != h)) {
    return Status::InvalidArgument("QueryEngine z shape mismatch");
  }
  QueryEngine engine;
  engine.xf_ = xf;
  engine.xb_ = xb;
  engine.y_ = y;
  engine.z_ = z;
  engine.pool_ = options.pool;
  const BlockShape shape = DeriveBlockShape(options, h);
  engine.query_block_ = shape.query_block;
  engine.candidate_tile_ = shape.candidate_tile;
  if (z.rows() == 0 && options.precompute_link_gram && xb.rows() > 0 &&
      y.rows() > 0) {
    // The derivation EdgeScorer runs, so p(u, w) matches it bitwise.
    LinkCandidateRows(xb, y, &engine.z_owned_);
    engine.z_ = engine.z_owned_.View();
  }
  engine.num_attributes_ = engine.y_.rows();
  engine.supports_attributes_ = engine.xb_.rows() > 0 && engine.y_.rows() > 0;
  engine.supports_links_ = engine.z_.rows() > 0;
  if (options.metrics != nullptr) engine.ResolveMetrics(options.metrics);
  return engine;
}

void QueryEngine::ResolveMetrics(obs::MetricsRegistry* registry) {
  tiles_total_ = registry->GetCounter("pane_engine_tiles_scanned_total");
  ivf_scanned_total_ =
      registry->GetCounter("pane_engine_ivf_candidates_scanned_total");
  ivf_pruned_total_ =
      registry->GetCounter("pane_engine_ivf_candidates_pruned_total");
  tiles_gauge_ = registry->GetGauge("pane_engine_tiles_last_range");
  pruned_gauge_ = registry->GetGauge("pane_engine_ivf_pruned_last_range");
}

void QueryEngine::AccumulateRange(EngineCallStats* call_stats,
                                  int64_t scan_ns, int64_t select_ns,
                                  int64_t tiles, int64_t ivf_scanned,
                                  int64_t ivf_pruned) const {
  if (call_stats != nullptr) {
    call_stats->scan_ns.fetch_add(scan_ns, std::memory_order_relaxed);
    call_stats->select_ns.fetch_add(select_ns, std::memory_order_relaxed);
    call_stats->tiles.fetch_add(tiles, std::memory_order_relaxed);
    call_stats->ivf_scanned.fetch_add(ivf_scanned,
                                      std::memory_order_relaxed);
    call_stats->ivf_pruned.fetch_add(ivf_pruned, std::memory_order_relaxed);
  }
  if (tiles_total_ != nullptr && tiles > 0) {
    tiles_total_->Add(static_cast<uint64_t>(tiles));
    tiles_gauge_->Set(tiles);
  }
  if (ivf_scanned_total_ != nullptr && ivf_scanned > 0) {
    ivf_scanned_total_->Add(static_cast<uint64_t>(ivf_scanned));
  }
  if (ivf_pruned_total_ != nullptr && ivf_pruned > 0) {
    ivf_pruned_total_->Add(static_cast<uint64_t>(ivf_pruned));
    pruned_gauge_->Set(ivf_pruned);
  }
}

Result<QueryEngine> QueryEngine::CreateSharded(
    ConstMatrixView xf, ConstMatrixView xb, ConstMatrixView y,
    ConstMatrixView z, const store::ShardMeta& shard,
    const QueryEngineOptions& options) {
  if (xf.rows() != shard.num_nodes || xf.cols() != shard.dim ||
      xb.rows() != shard.num_nodes || xb.cols() != shard.dim) {
    return Status::InvalidArgument(
        "sharded engine needs the full xf/xb factors (" +
        std::to_string(shard.num_nodes) + " x " + std::to_string(shard.dim) +
        ")");
  }
  if (y.rows() != shard.attr_end - shard.attr_begin ||
      (y.rows() > 0 && y.cols() != shard.dim)) {
    return Status::InvalidArgument(
        "sharded engine y slice disagrees with the shard's attribute range");
  }
  if (z.rows() != shard.node_end - shard.node_begin ||
      (z.rows() > 0 && z.cols() != shard.dim)) {
    return Status::InvalidArgument(
        "sharded engine z slice disagrees with the shard's node range");
  }
  QueryEngine engine;
  engine.xf_ = xf;
  engine.xb_ = xb;
  engine.y_ = y;
  engine.z_ = z;
  engine.pool_ = options.pool;
  const BlockShape shape = DeriveBlockShape(options, shard.dim);
  engine.query_block_ = shape.query_block;
  engine.candidate_tile_ = shape.candidate_tile;
  engine.attr_base_ = shard.attr_begin;
  engine.link_base_ = shard.node_begin;
  engine.num_attributes_ = shard.num_attributes;
  engine.supports_attributes_ = shard.has_attributes;
  engine.supports_links_ = shard.has_links;
  engine.sharded_ = true;
  engine.shard_ = shard;
  if (options.metrics != nullptr) engine.ResolveMetrics(options.metrics);
  return engine;
}

Result<QueryEngine> QueryEngine::Create(const EmbeddingStore& store,
                                        const QueryEngineOptions& options) {
  if (store.sharded()) {
    return CreateSharded(store.xf(), store.xb(), store.y(), store.z(),
                         store.shard(), options);
  }
  if (!store.has_attribute_factors()) {
    return Status::InvalidArgument(
        "serving engine requires the xf/xb/y factor blocks (artifact "
        "method '" +
        store.method() + "' lacks them)");
  }
  return Create(store.xf(), store.xb(), store.y(), ConstMatrixView(),
                options);
}

void QueryEngine::ScanRange(Family family,
                            const std::vector<TopKQuery>& queries,
                            const AttributedGraph* exclude, int64_t q_begin,
                            int64_t q_end, int64_t c_begin, int64_t c_end,
                            std::vector<Ranking>* out,
                            EngineCallStats* call_stats) const {
  // Eq. 21 scores Dot(xf, y) + Dot(xb, y) over Y rows; Eq. 22 scores
  // Dot(xf, z) over Z rows and always skips the query node itself.
  const bool attr = family == Family::kAttributes;
  const ConstMatrixView cand = attr ? y_ : z_;
  // Candidates are offered under global ids (the base shifts a shard's
  // local slice), so exclusion lists and tie-breaks work in global space.
  const int64_t base = attr ? attr_base_ : link_base_;
  const int64_t h = xf_.cols();
  // Stage clocks are read per tile only when the caller asked for the
  // breakdown; a tile is ~query_block x candidate_tile x h flops, so two
  // clock reads against it are noise.
  const bool timed = call_stats != nullptr;
  int64_t scan_ns = 0, select_ns = 0, tiles = 0;
  const int64_t max_b = std::min(query_block_, q_end - q_begin);
  const int64_t max_w = PadDotBlockWidth(max_b);
  const int64_t tile = candidate_tile_;
  const DotBlockFn dot_block = GetDotBlock();
  const DotRowsFn dot_rows = GetDotRows();
  // Transposed panels feed the block kernel; a lone query is scored
  // straight from its factor rows by the rows kernel.
  const size_t panel = max_b > 1 ? static_cast<size_t>(h * max_w) : 0;
  std::vector<double> qtf(panel);
  std::vector<double> qtb(attr ? panel : 0);
  std::vector<double> buf(static_cast<size_t>(max_w * tile));
  std::vector<SelectState> states;

  for (int64_t block = q_begin; block < q_end; block += max_b) {
    const int64_t b = std::min(max_b, q_end - block);
    const int64_t w = PadDotBlockWidth(b);
    if (b > 1) {
      GatherTransposed(xf_, queries, block, b, w, qtf.data());
      if (attr) GatherTransposed(xb_, queries, block, b, w, qtb.data());
    }
    states.clear();
    for (int64_t q = 0; q < b; ++q) {
      const TopKQuery& query = queries[static_cast<size_t>(block + q)];
      states.emplace_back(query.k);
      if (exclude != nullptr) {
        states.back().excluded = ExcludedIds(
            attr ? exclude->attributes() : exclude->adjacency(), query.node);
      }
      if (!attr) InsertSelf(&states.back().excluded, query.node);
    }
    const int64_t node = queries[static_cast<size_t>(block)].node;
    for (int64_t c0 = c_begin; c0 < c_end; c0 += tile) {
      const int64_t len = std::min(tile, c_end - c0);
      const int64_t scan_start = timed ? MonotonicNanos() : 0;
      if (b == 1) {
        dot_rows(xf_.Row(node), attr ? xb_.Row(node) : nullptr, h,
                 cand.Row(c0), len, buf.data());
      } else {
        for (int64_t c = c0; c < c0 + len; ++c) {
          double* dst = buf.data() + (c - c0);
          dot_block(qtf.data(), h, w, cand.Row(c), dst, tile, /*add=*/false);
          if (attr) {
            dot_block(qtb.data(), h, w, cand.Row(c), dst, tile, /*add=*/true);
          }
        }
      }
      const int64_t select_start = timed ? MonotonicNanos() : 0;
      for (int64_t q = 0; q < b; ++q) {
        ScanTile(buf.data() + q * tile, base + c0, len,
                 &states[static_cast<size_t>(q)]);
      }
      if (timed) {
        scan_ns += select_start - scan_start;
        select_ns += MonotonicNanos() - select_start;
      }
      ++tiles;
    }
    for (int64_t q = 0; q < b; ++q) {
      (*out)[static_cast<size_t>(block + q)] =
          states[static_cast<size_t>(q)].heap.Take();
    }
  }
  AccumulateRange(call_stats, scan_ns, select_ns, tiles, 0, 0);
}

namespace {

/// Contiguous-range dispatch: queries are independent, so any partition
/// yields identical per-query results.
///
/// Concurrency contract of the engine (checked by the TSan tier rather
/// than lock annotations — there is no lock to annotate): the factor views
/// and IVF indexes are immutable once Create / BuildPrunedIndex /
/// LoadPrunedIndex return, every worker owns private scratch, and each
/// worker writes only the result slots of its own [begin, end) range (or,
/// under ExactTopK's candidate partition, only its own per-range ranking
/// lists). The RunBlocks barrier publishes those slots to the caller.
/// The only mutating members (BuildPrunedIndex / LoadPrunedIndex) must not
/// run concurrently with queries — PaneServer builds its index before
/// accepting traffic. Calls must not come from a worker of the engine's
/// own pool: a nested RunBlocks on one pool can deadlock (see
/// QueryEngineOptions::pool).
void RunRanges(ThreadPool* pool, int64_t count,
               const std::function<void(int64_t, int64_t)>& fn) {
  if (count == 0) return;
  if (pool != nullptr && pool->num_threads() > 1 && count > 1) {
    ParallelFor(pool, 0, count, fn);
  } else {
    fn(0, count);
  }
}

}  // namespace

std::vector<Ranking> QueryEngine::ExactTopK(
    Family family, const std::vector<TopKQuery>& queries,
    const AttributedGraph* exclude, EngineCallStats* call_stats) const {
  const int64_t count = static_cast<int64_t>(queries.size());
  const int64_t rows =
      family == Family::kAttributes ? y_.rows() : z_.rows();
  std::vector<Ranking> results(queries.size());
  const int workers = pool_ != nullptr ? pool_->num_threads() : 1;
  if (count == 0 || workers == 1 || count > workers) {
    // Query partition: each worker scans every candidate for its queries.
    RunRanges(pool_, count, [&](int64_t begin, int64_t end) {
      ScanRange(family, queries, exclude, begin, end, 0, rows, &results,
                call_stats);
    });
    return results;
  }
  // Candidate partition for batches of at most one query per worker:
  // worker p scans candidate range p for every query of the batch, so a
  // batch of one still uses every worker, and no worker streams all the
  // candidates for a lone query (that scan is bandwidth-bound). Past one
  // query per worker the attribute scan is faster under the query
  // partition, and from about three per worker both scans are. The ranges
  // hold disjoint global ids and RankBetter is a total order, so merging
  // the per-range rankings with MergeTopK yields exactly the single-scan
  // answer (the argument the router's shard merge rests on).
  const int parts =
      static_cast<int>(std::max<int64_t>(1, std::min<int64_t>(workers, rows)));
  const std::vector<Range> ranges = PartitionRange(rows, parts);
  std::vector<std::vector<Ranking>> partial(
      static_cast<size_t>(parts), std::vector<Ranking>(queries.size()));
  pool_->RunBlocks(parts, [&](int p) {
    const Range& range = ranges[static_cast<size_t>(p)];
    ScanRange(family, queries, exclude, 0, count, range.begin, range.end,
              &partial[static_cast<size_t>(p)], call_stats);
  });
  std::vector<Ranking> lists(static_cast<size_t>(parts));
  for (size_t q = 0; q < queries.size(); ++q) {
    for (size_t p = 0; p < lists.size(); ++p) {
      lists[p] = std::move(partial[p][q]);
    }
    results[q] = MergeTopK(lists, queries[q].k);
  }
  return results;
}

std::vector<Ranking> QueryEngine::TopKAttributes(
    const std::vector<TopKQuery>& queries, const AttributedGraph* exclude,
    EngineCallStats* call_stats) const {
  PANE_CHECK(supports_attributes())
      << "attribute queries need the xb and y factor blocks";
  for (const TopKQuery& q : queries) {
    PANE_CHECK(q.node >= 0 && q.node < num_nodes());
    PANE_CHECK(q.k > 0);
  }
  return ExactTopK(Family::kAttributes, queries, exclude, call_stats);
}

std::vector<Ranking> QueryEngine::TopKTargets(
    const std::vector<TopKQuery>& queries, const AttributedGraph* exclude,
    EngineCallStats* call_stats) const {
  PANE_CHECK(supports_links())
      << "link queries need z (supply it or let Create derive it from "
         "xb and y)";
  for (const TopKQuery& q : queries) {
    PANE_CHECK(q.node >= 0 && q.node < num_nodes());
    PANE_CHECK(q.k > 0);
  }
  return ExactTopK(Family::kTargets, queries, exclude, call_stats);
}

std::vector<double> QueryEngine::AttributeScores(
    const std::vector<std::pair<int64_t, int64_t>>& pairs) const {
  PANE_CHECK(supports_attributes());
  const int64_t h = xf_.cols();
  std::vector<double> scores(pairs.size());
  RunRanges(pool_, static_cast<int64_t>(pairs.size()),
            [&](int64_t begin, int64_t end) {
              for (int64_t i = begin; i < end; ++i) {
                const auto& [v, r] = pairs[static_cast<size_t>(i)];
                PANE_CHECK(v >= 0 && v < num_nodes());
                PANE_CHECK(r >= 0 && r < num_attributes());
                PANE_CHECK(OwnsAttribute(r))
                    << "attribute " << r << " is not held by this shard";
                const double* yr = y_.Row(r - attr_base_);
                scores[static_cast<size_t>(i)] =
                    Dot(xf_.Row(v), yr, h) + Dot(xb_.Row(v), yr, h);
              }
            });
  return scores;
}

std::vector<double> QueryEngine::LinkScores(
    const std::vector<std::pair<int64_t, int64_t>>& pairs) const {
  PANE_CHECK(supports_links());
  const int64_t h = xf_.cols();
  std::vector<double> scores(pairs.size());
  RunRanges(pool_, static_cast<int64_t>(pairs.size()),
            [&](int64_t begin, int64_t end) {
              for (int64_t i = begin; i < end; ++i) {
                const auto& [u, w] = pairs[static_cast<size_t>(i)];
                PANE_CHECK(u >= 0 && u < num_nodes());
                PANE_CHECK(w >= 0 && w < num_nodes());
                PANE_CHECK(OwnsTarget(w))
                    << "target " << w << " is not held by this shard";
                scores[static_cast<size_t>(i)] =
                    Dot(xf_.Row(u), z_.Row(w - link_base_), h);
              }
            });
  return scores;
}

Status QueryEngine::BuildPrunedIndex(const IvfOptions& options) {
  if (!supports_attributes() && !supports_links()) {
    return Status::InvalidArgument(
        "nothing to index: engine has neither attribute nor link scoring");
  }
  // Index only the local candidate slices. A shard whose slice for one
  // query family is empty simply keeps that index empty — the pruned calls
  // answer it with empty rankings, and the router's merge is unaffected.
  if (supports_attributes() && y_.rows() > 0) {
    PANE_ASSIGN_OR_RETURN(attr_index_, IvfIndex::Build(y_, options));
  }
  if (supports_links() && z_.rows() > 0) {
    PANE_ASSIGN_OR_RETURN(link_index_, IvfIndex::Build(z_, options));
  }
  return Status::OK();
}

Status QueryEngine::SavePrunedIndex(const std::string& path) const {
  if (!has_pruned_index()) {
    return Status::InvalidArgument(
        "no pruned index built; call BuildPrunedIndex before SavePrunedIndex");
  }
  store::ContainerWriter writer;
  std::string attr_meta, link_meta;  // alive until WriteTo returns
  if (!attr_index_.empty()) {
    PANE_RETURN_NOT_OK(attr_index_.AppendToContainer("attr.", &attr_meta,
                                                     &writer));
  }
  if (!link_index_.empty()) {
    PANE_RETURN_NOT_OK(link_index_.AppendToContainer("link.", &link_meta,
                                                     &writer));
  }
  return writer.WriteTo(path);
}

Status QueryEngine::LoadPrunedIndex(const std::string& path) {
  PANE_ASSIGN_OR_RETURN(store::Container container,
                        store::Container::Open(path));
  // Validate each stored index against this engine's candidate set before
  // touching attr_index_ / link_index_, so a mismatch leaves the engine
  // unchanged.
  IvfIndex attr_loaded, link_loaded;
  bool have_attr = false, have_link = false;
  {
    auto loaded = IvfIndex::FromContainer(container, "attr.");
    if (loaded.ok()) {
      if (!supports_attributes()) {
        return Status::InvalidArgument(
            path + " holds an attribute index but this engine has no "
                   "attribute scoring");
      }
      if (loaded->num_candidates() != y_.rows() ||
          loaded->dim() != y_.cols()) {
        return Status::InvalidArgument(
            path + " attribute index was built for a different embedding "
                   "(candidate count or dimension mismatch)");
      }
      attr_loaded = loaded.MoveValueUnsafe();
      have_attr = true;
    } else if (!loaded.status().IsNotFound()) {
      return loaded.status();
    }
  }
  {
    auto loaded = IvfIndex::FromContainer(container, "link.");
    if (loaded.ok()) {
      if (!supports_links()) {
        return Status::InvalidArgument(
            path + " holds a link index but this engine has no link scoring");
      }
      if (loaded->num_candidates() != z_.rows() ||
          loaded->dim() != z_.cols()) {
        return Status::InvalidArgument(
            path + " link index was built for a different embedding "
                   "(candidate count or dimension mismatch)");
      }
      link_loaded = loaded.MoveValueUnsafe();
      have_link = true;
    } else if (!loaded.status().IsNotFound()) {
      return loaded.status();
    }
  }
  if (!have_attr && !have_link) {
    return Status::InvalidArgument("container " + path +
                                   " holds no pruned index");
  }
  if (have_attr) attr_index_ = std::move(attr_loaded);
  if (have_link) link_index_ = std::move(link_loaded);
  return Status::OK();
}

std::vector<Ranking> QueryEngine::TopKAttributesPruned(
    const std::vector<TopKQuery>& queries, int64_t nprobe,
    const AttributedGraph* exclude, EngineCallStats* call_stats) const {
  PANE_CHECK(!attr_index_.empty() || (sharded_ && y_.rows() == 0))
      << "call BuildPrunedIndex before pruned attribute queries";
  const int64_t h = xf_.cols();
  std::vector<Ranking> results(queries.size());
  // A shard holding no attribute rows contributes nothing to any merge.
  if (attr_index_.empty()) {
    for (const TopKQuery& q : queries) {
      PANE_CHECK(q.node >= 0 && q.node < num_nodes());
      PANE_CHECK(q.k > 0);
    }
    return results;
  }
  const bool count = call_stats != nullptr || ivf_scanned_total_ != nullptr;
  RunRanges(pool_, static_cast<int64_t>(queries.size()),
            [&](int64_t begin, int64_t end) {
              std::vector<double> qv(static_cast<size_t>(h));
              int64_t scanned = 0;
              const int64_t start_ns =
                  call_stats != nullptr ? MonotonicNanos() : 0;
              for (int64_t i = begin; i < end; ++i) {
                const TopKQuery& query = queries[static_cast<size_t>(i)];
                PANE_CHECK(query.node >= 0 && query.node < num_nodes());
                PANE_CHECK(query.k > 0);
                const double* f = xf_.Row(query.node);
                const double* bk = xb_.Row(query.node);
                for (int64_t t = 0; t < h; ++t) {
                  qv[static_cast<size_t>(t)] = f[t] + bk[t];
                }
                const std::vector<int64_t> ex =
                    exclude != nullptr
                        ? ExcludedIds(exclude->attributes(), query.node)
                        : std::vector<int64_t>();
                results[static_cast<size_t>(i)] = attr_index_.Search(
                    qv.data(), query.k, nprobe, ex, /*skip_id=*/-1,
                    /*id_base=*/attr_base_, count ? &scanned : nullptr);
              }
              const int64_t scan_ns =
                  call_stats != nullptr ? MonotonicNanos() - start_ns : 0;
              const int64_t pruned =
                  count ? (end - begin) * attr_index_.num_candidates() -
                              scanned
                        : 0;
              AccumulateRange(call_stats, scan_ns, 0, 0, scanned, pruned);
            });
  return results;
}

std::vector<Ranking> QueryEngine::TopKTargetsPruned(
    const std::vector<TopKQuery>& queries, int64_t nprobe,
    const AttributedGraph* exclude, EngineCallStats* call_stats) const {
  PANE_CHECK(!link_index_.empty() || (sharded_ && z_.rows() == 0))
      << "call BuildPrunedIndex before pruned link queries";
  std::vector<Ranking> results(queries.size());
  if (link_index_.empty()) {
    for (const TopKQuery& q : queries) {
      PANE_CHECK(q.node >= 0 && q.node < num_nodes());
      PANE_CHECK(q.k > 0);
    }
    return results;
  }
  const bool count = call_stats != nullptr || ivf_scanned_total_ != nullptr;
  RunRanges(pool_, static_cast<int64_t>(queries.size()),
            [&](int64_t begin, int64_t end) {
              int64_t scanned = 0;
              const int64_t start_ns =
                  call_stats != nullptr ? MonotonicNanos() : 0;
              for (int64_t i = begin; i < end; ++i) {
                const TopKQuery& query = queries[static_cast<size_t>(i)];
                PANE_CHECK(query.node >= 0 && query.node < num_nodes());
                PANE_CHECK(query.k > 0);
                const std::vector<int64_t> ex =
                    exclude != nullptr
                        ? ExcludedIds(exclude->adjacency(), query.node)
                        : std::vector<int64_t>();
                results[static_cast<size_t>(i)] =
                    link_index_.Search(xf_.Row(query.node), query.k, nprobe,
                                       ex, /*skip_id=*/query.node,
                                       /*id_base=*/link_base_,
                                       count ? &scanned : nullptr);
              }
              const int64_t scan_ns =
                  call_stats != nullptr ? MonotonicNanos() - start_ns : 0;
              const int64_t pruned =
                  count ? (end - begin) * link_index_.num_candidates() -
                              scanned
                        : 0;
              AccumulateRange(call_stats, scan_ns, 0, 0, scanned, pruned);
            });
  return results;
}

}  // namespace serve
}  // namespace pane
