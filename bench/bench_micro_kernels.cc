// google-benchmark microbenchmarks for the kernels PANE's complexity
// analysis is built on: SpMM (the O(md t) affinity phase), GEMM / RandSVD
// (the O(ndk t) initialization), one CCD sweep (the O(ndk) refinement), and
// the ablation of incremental residual maintenance (Equations 18-20)
// against naive recomputation, and roofline rows for the serving engine's
// two exact-scan dot kernels.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <sstream>

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/core/affinity_engine.h"
#include "src/core/ccd.h"
#include "src/core/greedy_init.h"
#include "src/graph/generators.h"
#include "src/graph/graph_io.h"
#include "src/graph/text_parser.h"
#include "src/matrix/gemm.h"
#include "src/matrix/rand_svd.h"
#include "src/matrix/spmm.h"
#include "src/parallel/thread_pool.h"
#include "src/serve/dot_block.h"

namespace pane {
namespace {

AttributedGraph BenchGraph(int64_t n) {
  SbmParams params;
  params.num_nodes = n;
  params.num_edges = 10 * n;
  params.num_attributes = 200;
  params.num_attr_entries = 10 * n;
  params.num_communities = 8;
  params.seed = 77;
  return GenerateAttributedSbm(params);
}

// (F', B') at the paper defaults, serial and in RAM.
AffinitySlabs BenchAffinity(const AttributedGraph& g) {
  AffinityEngineOptions options;
  options.t = ComputeIterationCount(0.015, options.alpha);
  AffinitySlabs affinity;
  PANE_CHECK_OK(ComputeGraphAffinityIntoSlabs(g, options, &affinity));
  return affinity;
}

// Serial GreedyInit at k = 64, t = 6.
InitOptions BenchInitOptions() {
  InitOptions options;
  options.k = 64;
  options.t = 6;
  return options;
}

void BM_SpMM(benchmark::State& state) {
  const int64_t n = state.range(0);
  const AttributedGraph g = BenchGraph(n);
  const CsrMatrix p = g.RandomWalkMatrix();
  Rng rng(1);
  DenseMatrix x(n, 64);
  x.FillGaussian(&rng);
  DenseMatrix out;
  for (auto _ : state) {
    SpMM(p, x, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * p.nnz() * 64);
}
BENCHMARK(BM_SpMM)->Arg(2000)->Arg(8000);

void BM_SpMMParallel(benchmark::State& state) {
  const int64_t n = 8000;
  const AttributedGraph g = BenchGraph(n);
  const CsrMatrix p = g.RandomWalkMatrix();
  Rng rng(1);
  DenseMatrix x(n, 64);
  x.FillGaussian(&rng);
  DenseMatrix out;
  ThreadPool pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    SpMM(p, x, &out, &pool);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_SpMMParallel)->Arg(1)->Arg(2)->Arg(4);

void BM_SpMV(benchmark::State& state) {
  const int64_t n = 8000;
  const AttributedGraph g = BenchGraph(n);
  const CsrMatrix p = g.RandomWalkMatrix();
  std::vector<double> x(static_cast<size_t>(n), 1.0);
  std::vector<double> y;
  ThreadPool pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    SpMV(p, x, &y, &pool);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * p.nnz());
}
BENCHMARK(BM_SpMV)->Arg(1)->Arg(4);

// --- Ingestion kernels -----------------------------------------------------

// ~200k-line "u v" edge text, the input shape of LoadGraphText / the SNAP
// edge-list reader.
std::string EdgeText(int64_t lines) {
  const AttributedGraph g = ErdosRenyi(lines / 8, lines, /*seed=*/5);
  std::string text;
  for (int64_t u = 0; u < g.num_nodes(); ++u) {
    const CsrMatrix::RowView row = g.adjacency().Row(u);
    for (int64_t p = 0; p < row.length; ++p) {
      text += std::to_string(u) + ' ' + std::to_string(row.cols[p]) + '\n';
    }
  }
  return text;
}

// Baseline: the legacy `istream >>` token loop the chunked parser replaced.
void BM_ParseEdgeTextIstream(benchmark::State& state) {
  const std::string text = EdgeText(200000);
  for (auto _ : state) {
    std::istringstream in(text);
    std::vector<Triplet> triplets;
    int64_t u = 0, v = 0;
    while (in >> u >> v) triplets.push_back(Triplet{u, v, 1.0});
    benchmark::DoNotOptimize(triplets.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_ParseEdgeTextIstream);

void BM_ParseEdgeTextChunked(benchmark::State& state) {
  const std::string text = EdgeText(200000);
  ThreadPool pool(static_cast<int>(state.range(0)));
  TripletParseOptions options;
  options.pool = &pool;
  for (auto _ : state) {
    auto triplets = ParseTriplets(text, options);
    benchmark::DoNotOptimize(triplets.ValueOrDie().data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_ParseEdgeTextChunked)->Arg(1)->Arg(4)->Arg(10);

// Graph container reload: page checksums + validated CSR adoption (no
// per-edge rebuild).
void BM_LoadGraphContainer(benchmark::State& state) {
  const AttributedGraph g = BenchGraph(20000);
  const std::string path =
      (std::filesystem::temp_directory_path() / "pane_micro_graph.ctn")
          .string();
  PANE_CHECK_OK(SaveGraphContainer(g, path));
  const int64_t bytes =
      static_cast<int64_t>(std::filesystem::file_size(path));
  for (auto _ : state) {
    auto loaded = LoadGraphContainer(path);
    benchmark::DoNotOptimize(loaded.ValueOrDie().num_edges());
  }
  state.SetBytesProcessed(state.iterations() * bytes);
  std::error_code ec;
  std::filesystem::remove(path, ec);
}
BENCHMARK(BM_LoadGraphContainer);

void BM_Gemm(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(2);
  DenseMatrix a(n, 200), b(200, 64), c;
  a.FillGaussian(&rng);
  b.FillGaussian(&rng);
  for (auto _ : state) {
    Gemm(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * 200 * 64);
}
BENCHMARK(BM_Gemm)->Arg(2000)->Arg(8000);

void BM_RandSvd(benchmark::State& state) {
  Rng rng(3);
  DenseMatrix m(static_cast<int64_t>(state.range(0)), 200);
  m.FillGaussian(&rng);
  RandSvdOptions options;
  options.power_iters = 6;
  DenseMatrix u, v;
  std::vector<double> sigma;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RandSvd(m, 64, options, &u, &sigma, &v).ok());
  }
}
BENCHMARK(BM_RandSvd)->Arg(2000)->Arg(4000);

void BM_ApmiIterationCost(benchmark::State& state) {
  const AttributedGraph g = BenchGraph(state.range(0));
  const CsrMatrix p = g.RandomWalkMatrix();
  const CsrMatrix pt = p.Transposed();
  AffinityEngineOptions options;
  options.alpha = 0.5;
  options.t = 6;
  for (auto _ : state) {
    AffinitySlabs affinity;
    const Status status =
        ComputeAffinityIntoSlabs(p, pt, g.attributes(), options, &affinity);
    benchmark::DoNotOptimize(status.ok());
  }
}
BENCHMARK(BM_ApmiIterationCost)->Arg(2000)->Arg(8000);

void BM_CcdSweep(benchmark::State& state) {
  const AttributedGraph g = BenchGraph(state.range(0));
  const AffinitySlabs affinity = BenchAffinity(g);
  const auto seed_state = GreedyInit(affinity, BenchInitOptions()).ValueOrDie();
  for (auto _ : state) {
    EmbeddingState working = seed_state;
    CcdOptions options;
    options.iterations = 1;
    benchmark::DoNotOptimize(CcdRefine(&working, options).ok());
  }
}
BENCHMARK(BM_CcdSweep)->Arg(2000)->Arg(4000);

// Ablation: the incremental residual maintenance of Equations (18)-(20)
// vs recomputing Sf = Xf Y^T - F' from scratch after a sweep. The paper's
// design avoids the full n x d GEMM per coordinate pass.
void BM_ResidualIncremental(benchmark::State& state) {
  const AttributedGraph g = BenchGraph(2000);
  const AffinitySlabs affinity = BenchAffinity(g);
  auto working = GreedyInit(affinity, BenchInitOptions()).ValueOrDie();
  CcdOptions options;
  options.iterations = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(CcdRefine(&working, options).ok());
  }
}
BENCHMARK(BM_ResidualIncremental);

void BM_ResidualRecompute(benchmark::State& state) {
  const AttributedGraph g = BenchGraph(2000);
  const AffinitySlabs affinity = BenchAffinity(g);
  const auto seed_state = GreedyInit(affinity, BenchInitOptions()).ValueOrDie();
  const DenseMatrix forward = affinity.forward.ToDense().ValueOrDie();
  const DenseMatrix backward = affinity.backward.ToDense().ValueOrDie();
  DenseMatrix sf, sb;
  for (auto _ : state) {
    GemmTransBAddScaled(seed_state.xf, seed_state.y, 1.0, forward, -1.0,
                        &sf);
    GemmTransBAddScaled(seed_state.xb, seed_state.y, 1.0, backward, -1.0,
                        &sb);
    benchmark::DoNotOptimize(sf.data());
  }
}
BENCHMARK(BM_ResidualRecompute);

// --- Serving engine dot kernels (roofline rows) ----------------------------

// The exact scan's kernels at h=64. items/s counts mul-adds (compare with
// the machine's peak multiply-add rate), bytes/s counts candidate-row bytes
// streamed (compare with its memory bandwidth). 1024 rows (512 KiB) is one
// engine tile and stays in cache; 100000 rows (51 MB) streams from memory
// like a batch-of-one link scan over Z.
constexpr int64_t kKernelDim = 64;

void BM_DotRowsSingleQuery(benchmark::State& state) {
  const int64_t n = state.range(0);
  const bool dual = state.range(1) != 0;  // Eq. 21's xf + xb pair
  Rng rng(4);
  DenseMatrix rows(n, kKernelDim), queries(2, kKernelDim);
  rows.FillGaussian(&rng);
  queries.FillGaussian(&rng);
  std::vector<double> out(static_cast<size_t>(n));
  const serve::DotRowsFn dot_rows = serve::GetDotRows();
  for (auto _ : state) {
    dot_rows(queries.Row(0), dual ? queries.Row(1) : nullptr, kKernelDim,
             rows.data(), n, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n * kKernelDim *
                          (dual ? 2 : 1));
  state.SetBytesProcessed(state.iterations() * n * kKernelDim *
                          static_cast<int64_t>(sizeof(double)));
}
BENCHMARK(BM_DotRowsSingleQuery)
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Args({100000, 0})
    ->Args({100000, 1});

void BM_DotBlockWidth64(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int64_t w = serve::kMaxDotBlockWidth;
  Rng rng(5);
  DenseMatrix rows(n, kKernelDim), panel(kKernelDim, w);
  rows.FillGaussian(&rng);
  panel.FillGaussian(&rng);
  // Query q's scores land in row q of a w x n buffer, the engine's tile
  // layout.
  std::vector<double> out(static_cast<size_t>(w * n));
  const serve::DotBlockFn dot_block = serve::GetDotBlock();
  for (auto _ : state) {
    for (int64_t c = 0; c < n; ++c) {
      dot_block(panel.data(), kKernelDim, w, rows.Row(c), out.data() + c, n,
                /*add=*/false);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n * kKernelDim * w);
  state.SetBytesProcessed(state.iterations() * n * kKernelDim *
                          static_cast<int64_t>(sizeof(double)));
}
BENCHMARK(BM_DotBlockWidth64)->Arg(1024);

}  // namespace
}  // namespace pane

BENCHMARK_MAIN();
