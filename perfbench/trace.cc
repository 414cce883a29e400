// perfbench_trace: the traced per-layer runs. Spans are recorded here,
// around calls into each layer's public functions; nothing inside src/ is
// instrumented.
//
//   train  graph build, one untraced Pane::Train, then a traced replay of
//          its phases through their public entry points
//          (ComputeGraphAffinityIntoSlabs, SmGreedyInit, CcdRefine) that
//          must be bitwise equal to the Train output
//   serve  store open / engine create / shard split / IVF build, then a
//          replay of the workload's request stream through codec decode,
//          PaneServer::ExecuteBatch (router and shard hops traced through a
//          ShardBackend decorator) and codec encode, untraced then traced,
//          plus a direct QueryEngine pass with EngineCallStats
//
// Both run the roofline probes and print one JSON object on stdout.
#include <algorithm>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "perfbench/common.h"
#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/core/affinity.h"
#include "src/core/affinity_engine.h"
#include "src/core/ccd.h"
#include "src/core/greedy_init.h"
#include "src/core/pane.h"
#include "src/matrix/factor_slab.h"
#include "src/matrix/rand_svd.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/parallel/thread_pool.h"
#include "src/serve/embedding_store.h"
#include "src/serve/frame_protocol.h"
#include "src/serve/line_protocol.h"
#include "src/serve/query_engine.h"
#include "src/serve/router.h"
#include "src/serve/server.h"
#include "src/store/buffer_pool.h"

namespace perfbench {
namespace {

using pane::FlagSet;

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void AddProbes(Tracer* tracer, int threads, Json* metrics, double* stream,
               double* peak) {
  {
    Scope span(tracer, "probe.stream", 0);
    *stream = StreamGbPerSecond(threads, 3);
  }
  {
    Scope span(tracer, "probe.muladd", 0);
    *peak = MulAddGflops(threads, 0.5);
  }
  metrics->Num("machine.stream_gb_per_s", *stream);
  metrics->Num("machine.muladd_gflops", *peak);
}

// ---- train ----------------------------------------------------------------

int TraceTrain(int argc, char** argv) {
  FlagSet flags;
  flags.AddInt("n", 10000, "nodes");
  flags.AddInt("d", 1000, "attributes");
  flags.AddInt("k", 64, "space budget");
  flags.AddInt("threads", 4, "training threads");
  flags.AddInt("seed", 1, "graph seed");
  flags.AddInt("budget-mb", 0, "memory budget (0 = unbounded)");
  flags.AddString("spill-dir", "", "spill directory");
  flags.AddString("spans-out", "", "span file (JSON lines)");
  PANE_CHECK_OK(flags.Parse(argc, argv));

  Tracer tracer;
  const pane::SbmParams params =
      TrainingGraph(flags.GetInt("n"), flags.GetInt("d"),
                    static_cast<uint64_t>(flags.GetInt("seed")));
  std::optional<pane::AttributedGraph> graph;
  {
    Scope span(&tracer, "graph.build", 0);
    graph.emplace(pane::GenerateAttributedSbm(params));
  }

  pane::PaneOptions options;
  options.k = static_cast<int>(flags.GetInt("k"));
  options.num_threads = static_cast<int>(flags.GetInt("threads"));
  options.memory_budget_mb = flags.GetInt("budget-mb");
  options.spill_dir = flags.GetString("spill-dir");

  // The untraced reference: one Train call, timed as a whole.
  pane::PaneStats stats;
  uint64_t train_hash = 0;
  double train_s = 0.0;
  {
    Scope span(&tracer, "pane.train", 0);
    const double start = NowSeconds();
    auto trained = pane::Pane(options).Train(*graph, &stats);
    train_s = NowSeconds() - start;
    PANE_CHECK(trained.ok()) << trained.status();
    train_hash = HashEmbedding(*trained);
  }
  // This process's peak so far: graph build and Train, as in a fresh
  // perfbench_e2e trainer (the replay and the probes come later).
  const double train_peak_rss_mb =
      static_cast<double>(pane::bench::PeakRssBytes()) / (1024.0 * 1024.0);

  // The traced replay: Train's phases back to back through their public
  // entry points, with Train's backing decision and budget split.
  const int64_t n = graph->num_nodes();
  const int64_t d = graph->num_attributes();
  const int t = pane::ComputeIterationCount(options.epsilon, options.alpha);
  const int64_t budget_mb = options.memory_budget_mb;
  pane::ThreadPool pool(options.num_threads);
  const int64_t slab_bytes = 4 * n * d * static_cast<int64_t>(sizeof(double));
  pane::FactorSlab::Backing backing =
      pane::ResolveSlabBacking(options.slab_policy, budget_mb, slab_bytes);
  std::unique_ptr<pane::store::BufferPool> buffer_pool;
  if (backing == pane::FactorSlab::Backing::kMmap) {
    pane::store::BufferPool::Options pool_options;
    pool_options.budget_bytes = (budget_mb << 20) / 2;
    buffer_pool = std::make_unique<pane::store::BufferPool>(pool_options);
    backing = pane::FactorSlab::Backing::kPooled;
  }
  double objective_initial = 0.0, objective_final = 0.0;
  uint64_t replay_hash = 0;
  double replay_s = 0.0;
  {
    Scope root(&tracer, "pane.replay", 1);
    const double start = NowSeconds();
    pane::AffinitySlabs affinity;
    auto forward = pane::FactorSlab::Create(n, d, backing, options.spill_dir,
                                            buffer_pool.get());
    auto backward = pane::FactorSlab::Create(n, d, backing, options.spill_dir,
                                             buffer_pool.get());
    PANE_CHECK(forward.ok() && backward.ok());
    affinity.forward = std::move(*forward);
    affinity.backward = std::move(*backward);
    {
      Scope span(&tracer, "affinity", 1);
      pane::AffinityEngineOptions engine_options;
      engine_options.alpha = options.alpha;
      engine_options.t = t;
      engine_options.pool = &pool;
      engine_options.memory_budget_mb = budget_mb;
      engine_options.spill_dir = options.spill_dir;
      PANE_CHECK_OK(pane::ComputeGraphAffinityIntoSlabs(*graph, engine_options,
                                                        &affinity));
    }
    pane::InitOptions init_options;
    init_options.k = options.k;
    init_options.t = t;
    init_options.seed = options.seed;
    init_options.pool = &pool;
    init_options.residual_backing = backing;
    init_options.spill_dir = options.spill_dir;
    init_options.memory_budget_mb = budget_mb;
    init_options.buffer_pool = buffer_pool.get();
    std::optional<pane::EmbeddingState> state;
    {
      Scope span(&tracer, "init", 1);
      auto seeded = pane::SmGreedyInit(affinity, init_options);
      PANE_CHECK(seeded.ok()) << seeded.status();
      state.emplace(std::move(*seeded));
    }
    affinity = pane::AffinitySlabs{};
    objective_initial = pane::Objective(*state);
    {
      Scope span(&tracer, "ccd", 1);
      pane::CcdOptions ccd_options;
      ccd_options.iterations = t;
      ccd_options.pool = &pool;
      ccd_options.memory_budget_mb = budget_mb;
      PANE_CHECK_OK(pane::CcdRefine(&*state, ccd_options));
    }
    objective_final = pane::Objective(*state);
    pane::PaneEmbedding replayed;
    replayed.xf = std::move(state->xf);
    replayed.xb = std::move(state->xb);
    replayed.y = std::move(state->y);
    replay_hash = HashEmbedding(replayed);
    replay_s = NowSeconds() - start;
  }
  // The replay's own pool is only a side record: its eviction pattern
  // lacks Train's init overlap. The pool.* metrics are Train's.
  const pane::store::BufferPool::Stats replay_pool_stats =
      buffer_pool != nullptr ? buffer_pool->stats()
                             : pane::store::BufferPool::Stats{};

  Json metrics;
  double stream = 0.0, peak = 0.0;
  AddProbes(&tracer, options.num_threads, &metrics, &stream, &peak);

  const double nd = static_cast<double>(n) * static_cast<double>(d);
  const double h = options.k / 2;
  const double l = h + pane::RandSvdOptions().oversample;
  const double affinity_s = tracer.Self("affinity");
  const double init_s = tracer.Self("init");
  const double ccd_s = tracer.Self("ccd");
  // Bytes and flops below are computed from sizes, not counted: each of
  // the t series steps in each direction streams the n x d iterate and
  // accumulator in and out (32 n d bytes); init sketches F' with t + 1
  // power passes of two n x d x l products, then forms Xb and both
  // residuals (three n x d x h products); a CCD sweep reads and writes
  // both residuals in its row phase and its strip phase (64 n d bytes).
  const double affinity_bytes = 2.0 * t * 32.0 * nd;
  const double init_flops = 4.0 * nd * l * (t + 1) + 6.0 * nd * h;
  const double ccd_bytes = 64.0 * nd * t;
  const double mb = 1024.0 * 1024.0;
  // PaneStats counts pool pages; Train's pool runs at the default page size.
  const int64_t train_pool_page_bytes =
      pane::store::BufferPool::Options().page_bytes;
  metrics.Num("graph.build_s", tracer.Total("graph.build"))
      .Num("affinity.busy_s", affinity_s)
      .Num("affinity.cells_per_s", Ratio(2.0 * t * nd, affinity_s))
      .Num("affinity.roof_frac",
           Ratio(Ratio(affinity_bytes, affinity_s) / 1e9, stream))
      .Num("init.busy_s", init_s)
      .Num("init.gflops", Ratio(init_flops, init_s) / 1e9)
      .Int("init.overlapped_blocks", stats.init_blocks_overlapped)
      .Num("ccd.busy_s", ccd_s)
      .Int("ccd.sweeps", t)
      .Num("ccd.gb_per_s", Ratio(ccd_bytes, ccd_s) / 1e9)
      .Num("ccd.objective", objective_final)
      .Int("pool.evictions", stats.pool.evicted_pages)
      .Num("pool.writeback_mb",
           static_cast<double>(stats.pool.writeback_pages) *
               static_cast<double>(train_pool_page_bytes) / mb)
      .Num("pool.resident_peak_mb",
           static_cast<double>(stats.pool.resident_peak_bytes) / mb)
      .Num("slab.spilled_mb",
           stats.slabs_spilled ? static_cast<double>(stats.slab_bytes) / mb
                               : 0.0)
      .Num("trace.span_coverage",
           Ratio(affinity_s + init_s + ccd_s, tracer.Total("pane.replay")))
      .Num("trace.overhead_frac", Ratio(replay_s, train_s) - 1.0);

  if (!flags.GetString("spans-out").empty()) {
    PANE_CHECK(tracer.WriteJsonLines(flags.GetString("spans-out")));
  }
  const bool replay_equal = replay_hash == train_hash;
  std::cout << Json()
                   .Raw("metrics", metrics.str())
                   .Raw("machine", MachineJson())
                   .Int("replay_equal", replay_equal)
                   .Str("train_hash", HexHash(train_hash))
                   .Str("replay_hash", HexHash(replay_hash))
                   .Num("train_s", train_s)
                   .Num("train_peak_rss_mb", train_peak_rss_mb)
                   .Num("replay_s", replay_s)
                   .Num("objective_initial", objective_initial)
                   .Num("objective_final", objective_final)
                   .Num("train_objective_initial", stats.objective_initial)
                   .Num("train_objective_final", stats.objective_final)
                   .Raw("pane_stats",
                        Json()
                            .Num("affinity_s", stats.affinity_seconds)
                            .Num("init_s", stats.init_seconds)
                            .Num("ccd_s", stats.ccd_seconds)
                            .Int("panel_width", stats.affinity.panel_width)
                            .Int("num_panels", stats.affinity.num_panels)
                            .Int("scratch_bytes", stats.affinity.scratch_bytes)
                            .Int("spilled", stats.slabs_spilled)
                            .Int("pooled", stats.pooled_spill)
                            .Int("ccd_strip_width", stats.ccd.strip_width)
                            .Int("pool_evicted_pages", stats.pool.evicted_pages)
                            .Int("pool_writeback_pages",
                                 stats.pool.writeback_pages)
                            .Int("pool_resident_peak_bytes",
                                 stats.pool.resident_peak_bytes)
                            .str())
                   .Raw("replay_pool_stats",
                        Json()
                            .Int("evicted_pages",
                                 replay_pool_stats.evicted_pages)
                            .Int("writeback_pages",
                                 replay_pool_stats.writeback_pages)
                            .Int("resident_peak_bytes",
                                 replay_pool_stats.resident_peak_bytes)
                            .Int("registered_bytes",
                                 replay_pool_stats.registered_bytes)
                            .str())
                   .Int("spans", static_cast<int64_t>(tracer.spans().size()))
                   .str()
            << std::endl;
  return replay_equal ? 0 : 1;
}

// ---- serve ----------------------------------------------------------------

/// One shard hop as seen from the router: its interval and the engine time
/// the shard's own server recorded for it.
struct Hop {
  int shard = 0;
  double start = 0.0;
  double end = 0.0;
  int64_t engine_us = 0;
};

/// Decorates a shard backend to time each hop. Each instance is called by
/// one fan-out task at a time and writes only its own vector; the caller
/// reads the vectors after ExecuteBatch returns (the fan-out has joined).
class TracedShard final : public pane::serve::ShardBackend {
 public:
  TracedShard(std::unique_ptr<pane::serve::ShardBackend> inner,
              pane::obs::MetricsRegistry* registry, int shard)
      : inner_(std::move(inner)),
        scan_(registry->GetHistogram("pane_stage_engine_scan_us")),
        select_(registry->GetHistogram("pane_stage_topk_select_us")),
        shard_(shard) {}

  pane::Status Execute(const std::vector<std::string>& requests,
                       std::vector<std::string>* responses) override {
    const int64_t before = EngineUs();
    Hop hop;
    hop.shard = shard_;
    hop.start = NowSeconds();
    pane::Status status = inner_->Execute(requests, responses);
    hop.end = NowSeconds();
    hop.engine_us = EngineUs() - before;
    hops_.push_back(hop);
    return status;
  }
  const std::string& describe() const override { return inner_->describe(); }

  std::vector<Hop>* hops() { return &hops_; }

 private:
  int64_t EngineUs() const {
    return scan_->TakeSnapshot().sum + select_->TakeSnapshot().sum;
  }

  std::unique_ptr<pane::serve::ShardBackend> inner_;
  pane::obs::Histogram* scan_;
  pane::obs::Histogram* select_;
  int shard_;
  std::vector<Hop> hops_;
};

int TraceServe(int argc, char** argv) {
  FlagSet flags;
  flags.AddString("artifact", "", "embedding artifact");
  // The served configuration, passed in full by run.py from the same
  // spec that builds the pane_server argv.
  flags.AddString("mix", "exact", "request mix: exact or sharded");
  flags.AddString("protocol", "frame", "line or frame");
  flags.AddInt("cache-size", 0, "server LRU entries");
  flags.AddInt("local-shards", 0, "in-process shards (0 = unsharded)");
  flags.AddBool("pruned", false, "serve top-k through the IVF indexes");
  flags.AddInt("nprobe", 0, "IVF clusters probed per pruned query");
  flags.AddInt("threads", 4, "worker threads");
  flags.AddInt("requests", 300, "requests replayed per pass");
  flags.AddInt("seed", 1, "request seed");
  flags.AddString("spans-out", "", "span file (JSON lines)");
  PANE_CHECK_OK(flags.Parse(argc, argv));
  const bool sharded = flags.GetInt("local-shards") > 0;
  // The two configurations the workloads serve: unsharded exact, and
  // sharded with pruned top-k.
  PANE_CHECK(sharded == flags.GetBool("pruned"))
      << "supported: unsharded exact, or --local-shards with --pruned";
  PANE_CHECK(!sharded || flags.GetInt("nprobe") > 0) << "--nprobe is required";
  const bool frame = flags.GetString("protocol") == "frame";
  const int threads = static_cast<int>(flags.GetInt("threads"));
  using pane::serve::Request;

  Tracer tracer;
  pane::ThreadPool pool(threads);
  pane::obs::MetricsRegistry registry;
  std::optional<pane::serve::EmbeddingStore> store;
  {
    Scope span(&tracer, "store.open", 0);
    auto opened = pane::serve::EmbeddingStore::Open(flags.GetString("artifact"));
    PANE_CHECK(opened.ok()) << opened.status();
    store.emplace(std::move(*opened));
  }

  pane::serve::ServerOptions server_options;
  server_options.cache_capacity = flags.GetInt("cache-size");
  server_options.pruned = sharded;
  server_options.nprobe = flags.GetInt("nprobe");
  server_options.protocol =
      frame ? pane::serve::Protocol::kFrame : pane::serve::Protocol::kLine;
  server_options.metrics = &registry;

  // The unsharded exact engine: the server's engine on serve_exact, the
  // reference for the replay's answers on both.
  std::optional<pane::serve::QueryEngine> engine;
  {
    Scope span(&tracer, sharded ? "reference.create" : "engine.create", 0);
    pane::serve::QueryEngineOptions options;
    options.pool = &pool;
    options.metrics = &registry;
    auto created = pane::serve::QueryEngine::Create(*store, options);
    PANE_CHECK(created.ok()) << created.status();
    engine.emplace(std::move(*created));
  }

  pane::serve::LocalFleet fleet;
  std::vector<std::unique_ptr<pane::obs::MetricsRegistry>> shard_registries;
  std::vector<TracedShard*> traced;
  std::optional<pane::serve::Router> router;
  if (sharded) {
    {
      Scope span(&tracer, "shard.split", 0);
      pane::serve::QueryEngineOptions shard_engine_options;
      auto built = pane::serve::BuildLocalShards(
          *store, static_cast<int>(flags.GetInt("local-shards")),
          shard_engine_options, server_options, nullptr);
      PANE_CHECK(built.ok()) << built.status();
      fleet = std::move(*built);
    }
    {
      Scope span(&tracer, "ivf.build", 0);
      pane::serve::IvfOptions ivf;
      ivf.pool = &pool;
      for (auto& shard_engine : fleet.engines) {
        PANE_CHECK_OK(shard_engine->BuildPrunedIndex(ivf));
      }
    }
  }
  // A fresh router (and shard servers, each recording into its own
  // registry so a hop's engine time can be told apart from its siblings')
  // per pass, so both passes start from the same cold caches.
  const auto make_router = [&]() {
    router.reset();
    traced.clear();
    shard_registries.clear();
    std::vector<std::unique_ptr<pane::serve::ShardBackend>> backends;
    for (size_t s = 0; s < fleet.engines.size(); ++s) {
      shard_registries.push_back(std::make_unique<pane::obs::MetricsRegistry>());
      pane::serve::ServerOptions shard_options = server_options;
      shard_options.metrics = shard_registries.back().get();
      auto shard = std::make_unique<TracedShard>(
          std::make_unique<pane::serve::LocalShard>(
              fleet.engines[s].get(), shard_options, static_cast<int>(s)),
          shard_registries.back().get(), static_cast<int>(s));
      traced.push_back(shard.get());
      backends.push_back(std::move(shard));
    }
    pane::serve::RouterOptions router_options;
    router_options.pool = &pool;
    router_options.metrics = &registry;
    auto created = pane::serve::Router::Create(std::move(backends), router_options);
    PANE_CHECK(created.ok()) << created.status();
    router.emplace(std::move(*created));
  };

  const RequestMix mix = MixByName(flags.GetString("mix"));
  RequestStream stream(mix, store->num_nodes(), store->num_attributes(),
                       static_cast<uint64_t>(flags.GetInt("seed")) * 7919 + 5);
  std::vector<std::string> wire;
  std::vector<std::string> lines;
  {
    auto codec = frame ? std::unique_ptr<pane::serve::ProtocolCodec>(
                             new pane::serve::FrameCodec())
                       : std::unique_ptr<pane::serve::ProtocolCodec>(
                             new pane::serve::LineCodec());
    for (int64_t i = 0; i < flags.GetInt("requests"); ++i) {
      lines.push_back(stream.Next());
      std::string bytes;
      codec->Encode(lines.back(), &bytes);
      wire.push_back(std::move(bytes));
    }
  }
  const auto make_server = [&]() {
    if (!sharded) {
      return std::make_unique<pane::serve::PaneServer>(&*engine,
                                                       server_options);
    }
    make_router();
    return std::make_unique<pane::serve::PaneServer>(&*router,
                                                     server_options);
  };

  // One pass: every request decoded, executed as a batch of one (what a
  // connection with one outstanding request gets) and encoded.
  std::vector<std::string> answers;
  std::vector<double> overhead_us, hop_us;
  int64_t errors = 0;
  const auto replay = [&](bool trace_on) {
    auto server = make_server();
    auto codec = frame ? std::unique_ptr<pane::serve::ProtocolCodec>(
                             new pane::serve::FrameCodec())
                       : std::unique_ptr<pane::serve::ProtocolCodec>(
                             new pane::serve::LineCodec());
    answers.clear();
    const double start = NowSeconds();
    for (size_t i = 0; i < wire.size(); ++i) {
      const auto run = static_cast<int64_t>(i);
      std::optional<Scope> request;
      if (trace_on) request.emplace(&tracer, "request", run);
      std::vector<pane::serve::PaneServer::BatchEntry> batch(1);
      {
        std::optional<Scope> span;
        if (trace_on) span.emplace(&tracer, "codec.decode", run);
        size_t pos = 0;
        std::string_view payload;
        std::string error;
        PANE_CHECK(codec->Decode(wire[i], &pos, &payload, &error) ==
                   pane::serve::ProtocolCodec::Decoded::kMessage);
        auto parsed = pane::serve::ParseRequestLine(payload);
        PANE_CHECK(parsed.ok()) << parsed.status();
        batch[0].request = *parsed;
      }
      std::vector<std::string> responses;
      bool quit = false;
      pane::obs::RequestTrace stages;
      if (trace_on) {
        Scope span(&tracer, "server.execute", run);
        std::vector<size_t> hop_mark;
        for (TracedShard* shard : traced) hop_mark.push_back(shard->hops()->size());
        server->ExecuteBatch(&batch, &responses, &quit, &stages);
        const double exec_start =
            tracer.spans()[static_cast<size_t>(span.id())].start;
        if (traced.empty()) {
          const double scan = stages.us(pane::obs::Stage::kScan) * 1e-6;
          const double select = stages.us(pane::obs::Stage::kSelect) * 1e-6;
          tracer.AddChild("engine.scan", span.id(), exec_start,
                          exec_start + scan);
          tracer.AddChild("engine.select", span.id(), exec_start + scan,
                          exec_start + scan + select);
        }
        // Router overhead: the router's call (fan-out + merge, as the
        // router stamps it) minus the slowest shard engine's time on the
        // same batch. Cache hits make no hops and are skipped.
        int64_t slowest_engine_us = 0;
        bool hopped = false;
        for (size_t s = 0; s < traced.size(); ++s) {
          const std::vector<Hop>& hops = *traced[s]->hops();
          for (size_t h = hop_mark[s]; h < hops.size(); ++h) {
            tracer.AddChild("router.hop", span.id(), hops[h].start,
                            hops[h].end);
            hop_us.push_back((hops[h].end - hops[h].start) * 1e6);
            slowest_engine_us = std::max(slowest_engine_us, hops[h].engine_us);
            hopped = true;
          }
        }
        if (hopped) {
          overhead_us.push_back(
              static_cast<double>(stages.us(pane::obs::Stage::kFanout) +
                                  stages.us(pane::obs::Stage::kMerge) -
                                  slowest_engine_us));
        }
      } else {
        server->ExecuteBatch(&batch, &responses, &quit, nullptr);
      }
      if (responses[0].rfind("err", 0) == 0) ++errors;
      {
        std::optional<Scope> span;
        if (trace_on) span.emplace(&tracer, "codec.encode", run);
        std::string out;
        codec->Encode(responses[0], &out);
      }
      answers.push_back(std::move(responses[0]));
    }
    return NowSeconds() - start;
  };
  replay(false);  // warm-up: page faults on the mapped artifact, allocator
  const double untraced_s = replay(false);
  const double traced_s = replay(true);

  // Exact answers for the replay (byte-identical on serve_exact), and the
  // engine layer on its own: batches of one with EngineCallStats.
  pane::serve::EngineCallStats call_stats;
  int64_t topk = 0, mismatches = 0, muladds = 0;
  // Pruned answers are scored against exact ones on the first top-k
  // requests (the exact scan is slow, the sample bounds the run).
  constexpr int64_t kRecallSample = 200;
  int64_t recall_n = 0;
  double recall_sum = 0.0;
  {
    Scope span(&tracer, "engine.direct", 0);
    for (size_t i = 0; i < lines.size(); ++i) {
      auto parsed = pane::serve::ParseRequestLine(lines[i]);
      PANE_CHECK(parsed.ok());
      const Request& r = *parsed;
      const bool attr = r.type == Request::Type::kTopKAttributes;
      if (!attr && r.type != Request::Type::kTopKTargets) continue;
      ++topk;
      const std::vector<pane::serve::TopKQuery> q = {{r.a, r.k}};
      if (sharded) {
        for (auto& shard_engine : fleet.engines) {
          if (attr) {
            shard_engine->TopKAttributesPruned(q, server_options.nprobe,
                                               nullptr, &call_stats);
          } else {
            shard_engine->TopKTargetsPruned(q, server_options.nprobe, nullptr,
                                            &call_stats);
          }
        }
        pane::Ranking served;
        if (recall_n < kRecallSample &&
            pane::serve::ParseRankingResponse(answers[i], r.type, r.a, &served)
                .ok()) {
          const auto exact = attr ? engine->TopKAttributes(q)
                                  : engine->TopKTargets(q);
          std::set<int64_t> truth;
          for (const auto& entry : exact[0]) truth.insert(entry.first);
          int64_t hit = 0;
          for (const auto& entry : served) hit += truth.count(entry.first);
          recall_sum += truth.empty() ? 1.0
                                      : static_cast<double>(hit) /
                                            static_cast<double>(truth.size());
          ++recall_n;
        }
        continue;
      }
      const auto ranking = attr ? engine->TopKAttributes(q, nullptr, &call_stats)
                                : engine->TopKTargets(q, nullptr, &call_stats);
      muladds += (attr ? store->num_attributes() : store->num_nodes()) *
                 store->dim();
      mismatches += pane::serve::FormatRanking(r, ranking[0]) != answers[i];
    }
  }
  const double scan_s = call_stats.scan_ns.load() * 1e-9;
  const double select_s = call_stats.select_ns.load() * 1e-9;
  const int64_t ivf_scanned = call_stats.ivf_scanned.load();
  const int64_t ivf_pruned = call_stats.ivf_pruned.load();
  if (sharded) muladds = ivf_scanned * store->dim();

  Json metrics;
  double stream_bw = 0.0, peak = 0.0;
  AddProbes(&tracer, threads, &metrics, &stream_bw, &peak);
  const double q = static_cast<double>(std::max<int64_t>(topk, 1));
  const double n_req = static_cast<double>(wire.size());
  const double gmuladd = Ratio(static_cast<double>(muladds), scan_s) / 1e9;
  double mean_overhead = 0.0;
  for (const double v : overhead_us) mean_overhead += v;
  mean_overhead = Ratio(mean_overhead, static_cast<double>(overhead_us.size()));
  const double served = tracer.Self("codec.decode") + tracer.Total("server.execute") +
                        tracer.Self("codec.encode");
  metrics.Num("store.open_s", tracer.Total("store.open"))
      .Num("engine.create_s", tracer.Total("engine.create"))
      .Num("ivf.build_s", tracer.Total("ivf.build"))
      .Num("shard.split_s", tracer.Total("shard.split"))
      .Num("engine.scan_us_per_q", scan_s * 1e6 / q)
      .Num("engine.select_us_per_q", select_s * 1e6 / q)
      .Num("engine.gmuladd_per_s", gmuladd)
      .Num("engine.roof_frac", Ratio(2.0 * gmuladd, peak))
      .Num("ivf.scanned_per_q", static_cast<double>(ivf_scanned) / q)
      .Num("ivf.recall_at_10",
           sharded ? Ratio(recall_sum, static_cast<double>(recall_n)) : 0.0)
      .Num("ivf.pruned_frac",
           Ratio(static_cast<double>(ivf_pruned),
                 static_cast<double>(ivf_scanned + ivf_pruned)))
      .Num("router.overhead_us_per_batch", mean_overhead)
      .Num("router.hop_p99_us", Quantile(hop_us, 0.99))
      .Num("codec.decode_ns_per_req", tracer.Total("codec.decode") * 1e9 / n_req)
      .Num("codec.encode_ns_per_resp", tracer.Total("codec.encode") * 1e9 / n_req)
      .Num("server.execute_us_per_batch",
           tracer.Total("server.execute") * 1e6 / n_req)
      .Num("trace.span_coverage", Ratio(served, tracer.Total("request")))
      .Num("trace.overhead_frac", Ratio(traced_s, untraced_s) - 1.0);

  if (!flags.GetString("spans-out").empty()) {
    PANE_CHECK(tracer.WriteJsonLines(flags.GetString("spans-out")));
  }
  Json breakdown;
  for (const char* name :
       {"codec.decode", "server.execute", "engine.scan", "engine.select",
        "router.hop", "codec.encode", "request"}) {
    breakdown.Num(std::string(name) + ".self_us_per_req",
                  tracer.Self(name) * 1e6 / n_req);
  }
  std::cout << Json()
                   .Raw("metrics", metrics.str())
                   .Raw("machine", MachineJson())
                   .Raw("self_time", breakdown.str())
                   .Int("replayed", static_cast<int64_t>(wire.size()))
                   .Int("errors", errors)
                   .Int("exact_mismatches", mismatches)
                   .Int("topk_direct", topk)
                   .Num("untraced_s", untraced_s)
                   .Num("traced_s", traced_s)
                   .Int("spans", static_cast<int64_t>(tracer.spans().size()))
                   .str()
            << std::endl;
  return errors == 0 && mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::string usage = "usage: perfbench_trace {train|serve} [--flags]";
  if (argc < 2) {
    std::cerr << usage << std::endl;
    return 2;
  }
  const std::string command = argv[1];
  if (command == "train") return perfbench::TraceTrain(argc - 1, argv + 1);
  if (command == "serve") return perfbench::TraceServe(argc - 1, argv + 1);
  std::cerr << usage << std::endl;
  return 2;
}
