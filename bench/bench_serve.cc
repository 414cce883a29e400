// Serving-path benchmark: legacy per-query top-k vs the batched
// QueryEngine (exact and IVF-pruned) on a clustered synthetic embedding.
// Reports throughput (QPS), per-query latency (p50/p99), and measured
// recall@k for the pruned mode's nprobe sweep — the acceptance numbers of
// the serving subsystem: >= 5x the legacy single-thread per-query path on
// a >= 10k-node graph at measured recall@10 >= 0.9 (the pruned rows),
// with the exact engine bitwise-identical to the legacy results and
// faster per thread on top (the batched kernel's cross-query SIMD; exact
// arithmetic caps it well below the pruned speedups, since every
// candidate must still be scored with Dot's exact rounding).
//
// Sizing: PANE_BENCH_SERVE_N / PANE_BENCH_SERVE_D / PANE_BENCH_SERVE_H
// override the node / attribute counts and the per-side factor width
// (defaults 100000 / 20000 / 64 = the paper-default k=128, n and d times
// PANE_BENCH_SCALE).
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "src/api/node_embedding.h"
#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/common/timer.h"
#include "src/common/topk.h"
#include "src/core/embedding.h"
#include "src/graph/generators.h"
#include "src/obs/metrics.h"
#include "src/parallel/thread_pool.h"
#include "src/serve/embedding_store.h"
#include "src/serve/frame_protocol.h"
#include "src/serve/ivf_index.h"
#include "src/serve/query_engine.h"
#include "src/serve/router.h"
#include "src/serve/server.h"

namespace pane {
namespace bench {
namespace {

constexpr int64_t kTopK = 10;

// ---- The pre-serving-subsystem per-query path, reproduced verbatim ------

Ranking LegacySelectTopK(Ranking candidates, int64_t k) {
  const int64_t kk =
      std::min<int64_t>(k, static_cast<int64_t>(candidates.size()));
  std::partial_sort(
      candidates.begin(), candidates.begin() + kk, candidates.end(),
      [](const auto& a, const auto& b) { return a.second > b.second; });
  candidates.resize(static_cast<size_t>(kk));
  return candidates;
}

Ranking LegacyTopKAttributes(const PaneEmbedding& embedding, int64_t v,
                             int64_t k, const AttributedGraph* exclude) {
  Ranking candidates;
  candidates.reserve(static_cast<size_t>(embedding.num_attributes()));
  for (int64_t r = 0; r < embedding.num_attributes(); ++r) {
    if (exclude != nullptr && exclude->attributes().At(v, r) != 0.0) continue;
    candidates.emplace_back(r, embedding.AttributeScore(v, r));
  }
  return LegacySelectTopK(std::move(candidates), k);
}

Ranking LegacyTopKTargets(const PaneEmbedding& embedding,
                          const EdgeScorer& scorer, int64_t u, int64_t k,
                          const AttributedGraph* exclude) {
  Ranking candidates;
  candidates.reserve(static_cast<size_t>(embedding.num_nodes()));
  for (int64_t v = 0; v < embedding.num_nodes(); ++v) {
    if (v == u) continue;
    if (exclude != nullptr && exclude->adjacency().At(u, v) != 0.0) continue;
    candidates.emplace_back(v, scorer.Score(u, v));
  }
  return LegacySelectTopK(std::move(candidates), k);
}

// ---- Clustered synthetic embedding (IVF recall needs structure) ---------

PaneEmbedding MakeClusteredEmbedding(const AttributedGraph& graph, int64_t h,
                                     int32_t communities, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix node_centroids(communities, h);
  DenseMatrix attr_centroids(communities, h);
  node_centroids.FillGaussian(&rng);
  attr_centroids.FillGaussian(&rng);
  PaneEmbedding e;
  e.xf.Resize(graph.num_nodes(), h);
  e.xb.Resize(graph.num_nodes(), h);
  e.y.Resize(graph.num_attributes(), h);
  for (int64_t v = 0; v < graph.num_nodes(); ++v) {
    const int32_t c = graph.labels()[static_cast<size_t>(v)][0];
    for (int64_t t = 0; t < h; ++t) {
      e.xf(v, t) = node_centroids(c, t) + 0.3 * rng.Gaussian();
      e.xb(v, t) = node_centroids(c, t) + 0.3 * rng.Gaussian();
    }
  }
  // The SBM partitions attributes into per-community blocks.
  const int64_t block = std::max<int64_t>(
      1, graph.num_attributes() / communities);
  for (int64_t r = 0; r < graph.num_attributes(); ++r) {
    const int64_t c = std::min<int64_t>(r / block, communities - 1);
    for (int64_t t = 0; t < h; ++t) {
      e.y(r, t) = attr_centroids(c, t) + 0.3 * rng.Gaussian();
    }
  }
  return e;
}

std::vector<serve::TopKQuery> MakeQueries(int64_t n, int64_t count,
                                          uint64_t seed) {
  Rng rng(seed);
  std::vector<serve::TopKQuery> queries;
  queries.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    queries.push_back(
        {static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(n))),
         kTopK});
  }
  return queries;
}

std::string QpsCell(double qps) {
  char buf[32];
  if (qps >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM", qps / 1e6);
  } else if (qps >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fk", qps / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", qps);
  }
  return buf;
}

std::string MicrosCell(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0fus", seconds * 1e6);
  return buf;
}

struct Latency {
  double p50 = 0.0, p99 = 0.0;
};

/// Everything the --json snapshot reports, collected as the sections run.
struct ServeTelemetry {
  int64_t n = 0, d = 0, h = 0;
  double legacy_attr_qps = 0.0, exact_attr_qps = 0.0;
  double legacy_link_qps = 0.0, exact_link_qps = 0.0;
  double attr_p50_us = 0.0, attr_p99_us = 0.0;
  double link_p50_us = 0.0, link_p99_us = 0.0;
  struct PrunedRow {
    int64_t nprobe = 0;
    double qps = 0.0;
    double recall = 0.0;
  };
  std::vector<PrunedRow> pruned;
  double shard2_speedup = 0.0, shard4_speedup = 0.0;
  double qps_metrics_off = 0.0, qps_metrics_on = 0.0;
  double metrics_overhead_pct = 0.0;
  int64_t stage_scan_count = 0, stage_fanout_count = 0;
  std::string metrics_dump;  ///< the local-shards=2 registry exposition
  struct ConcurrentRow {
    int connections = 0;
    bool framed = false;
    double qps = 0.0;
    double p50_us = 0.0, p99_us = 0.0;
    uint64_t cache_hits = 0;  ///< must read 0: the server runs uncached
  };
  std::vector<ConcurrentRow> concurrent;
};

// ---- TCP client for the concurrent-connections section ------------------

int ConnectLoopback(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  PANE_CHECK(fd >= 0);
  const int one = 1;
  // Round-trip latency is the measurement; Nagle would serialize it with
  // the delayed-ack clock instead of the server.
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  PANE_CHECK(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
             0)
      << std::strerror(errno);
  return fd;
}

/// One client connection issuing `count` random attr round-trips (write a
/// request, block for its full response) and recording each round-trip
/// time.
std::vector<double> RunClient(int port, bool framed, int64_t count,
                              int64_t num_nodes, uint64_t seed) {
  const int fd = ConnectLoopback(port);
  Rng rng(seed);
  serve::FrameCodec codec;
  std::vector<double> times;
  times.reserve(static_cast<size_t>(count));
  std::string wire, response;
  char buf[4096];
  for (int64_t i = 0; i < count; ++i) {
    const int64_t node =
        static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(num_nodes)));
    const std::string payload =
        "attr " + std::to_string(node) + " " + std::to_string(kTopK);
    wire.clear();
    if (framed) {
      serve::AppendFrame(payload, &wire);
    } else {
      wire = payload + "\n";
    }
    WallTimer t;
    size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n = write(fd, wire.data() + sent, wire.size() - sent);
      PANE_CHECK(n > 0) << std::strerror(errno);
      sent += static_cast<size_t>(n);
    }
    response.clear();
    bool complete = false;
    while (!complete) {
      const ssize_t got = read(fd, buf, sizeof(buf));
      PANE_CHECK(got > 0) << "server closed mid-benchmark";
      response.append(buf, static_cast<size_t>(got));
      if (framed) {
        size_t pos = 0;
        std::string_view p;
        std::string error;
        complete = codec.Decode(response, &pos, &p, &error) ==
                   serve::ProtocolCodec::Decoded::kMessage;
      } else {
        complete = response.back() == '\n';
      }
    }
    times.push_back(t.ElapsedSeconds());
  }
  close(fd);
  return times;
}

Latency Percentiles(std::vector<double> seconds) {
  std::sort(seconds.begin(), seconds.end());
  Latency l;
  if (seconds.empty()) return l;
  l.p50 = seconds[seconds.size() / 2];
  l.p99 = seconds[std::min(seconds.size() - 1, seconds.size() * 99 / 100)];
  return l;
}

}  // namespace

void Run(const std::string& json_path) {
  ServeTelemetry telemetry;
  const double scale = BenchScale();
  const int64_t n = static_cast<int64_t>(
      EnvDoubleOr("PANE_BENCH_SERVE_N", 100000.0 * scale));
  const int64_t d = static_cast<int64_t>(
      EnvDoubleOr("PANE_BENCH_SERVE_D", 20000.0 * scale));
  const int64_t h = static_cast<int64_t>(EnvDoubleOr("PANE_BENCH_SERVE_H", 64.0));
  const int32_t communities = 32;
  const int num_threads = 4;
  telemetry.n = n;
  telemetry.d = d;
  telemetry.h = h;

  SbmParams params;
  params.num_nodes = n;
  params.num_edges = 8 * n;
  params.num_attributes = d;
  params.num_attr_entries = 8 * n;
  params.num_communities = communities;
  params.seed = 7;
  const AttributedGraph graph = GenerateAttributedSbm(params);
  const PaneEmbedding embedding =
      MakeClusteredEmbedding(graph, h, communities, 11);
  const EdgeScorer scorer(embedding);

  PrintHeader("Serving throughput",
              "legacy per-query vs batched QueryEngine, n=" +
                  std::to_string(n) + " d=" + std::to_string(d) +
                  " h=" + std::to_string(h) + " k=" + std::to_string(kTopK));

  // Engines share the scorer's Z so exact link scores match it bitwise.
  serve::QueryEngineOptions serial_options;
  auto serial_engine = serve::QueryEngine::Create(
      embedding.xf.View(), embedding.xb.View(), embedding.y.View(),
      scorer.z(), serial_options);
  PANE_CHECK(serial_engine.ok()) << serial_engine.status();
  ThreadPool pool(num_threads);
  serve::QueryEngineOptions pooled_options;
  pooled_options.pool = &pool;
  auto pooled_engine = serve::QueryEngine::Create(
      embedding.xf.View(), embedding.xb.View(), embedding.y.View(),
      scorer.z(), pooled_options);
  PANE_CHECK(pooled_engine.ok()) << pooled_engine.status();

  const int64_t legacy_queries = std::max<int64_t>(64, 40000000 / n);
  const int64_t engine_queries = 4 * legacy_queries;
  double legacy_attr_qps = 0.0, engine_attr_qps = 0.0;
  double legacy_link_qps = 0.0, engine_link_qps = 0.0;

  const auto bench_mode = [&](const char* label,
                              const AttributedGraph* exclude) {
    const auto lq = MakeQueries(n, legacy_queries, 21);
    const auto eq = MakeQueries(n, engine_queries, 22);
    WallTimer timer;
    for (const auto& q : lq) {
      LegacyTopKAttributes(embedding, q.node, q.k, exclude);
    }
    const double legacy_attr = legacy_queries / timer.ElapsedSeconds();
    timer.Restart();
    for (const auto& q : lq) {
      LegacyTopKTargets(embedding, scorer, q.node, q.k, exclude);
    }
    const double legacy_link = legacy_queries / timer.ElapsedSeconds();
    timer.Restart();
    serial_engine->TopKAttributes(eq, exclude);
    const double serial_attr = engine_queries / timer.ElapsedSeconds();
    timer.Restart();
    serial_engine->TopKTargets(eq, exclude);
    const double serial_link = engine_queries / timer.ElapsedSeconds();
    timer.Restart();
    pooled_engine->TopKAttributes(eq, exclude);
    const double pooled_attr = engine_queries / timer.ElapsedSeconds();
    timer.Restart();
    pooled_engine->TopKTargets(eq, exclude);
    const double pooled_link = engine_queries / timer.ElapsedSeconds();

    char speedup_attr[32], speedup_link[32];
    std::snprintf(speedup_attr, sizeof(speedup_attr), "%.1fx",
                  serial_attr / legacy_attr);
    std::snprintf(speedup_link, sizeof(speedup_link), "%.1fx",
                  serial_link / legacy_link);
    PrintRow(std::string(label) + " attr",
             {QpsCell(legacy_attr), QpsCell(serial_attr), speedup_attr,
              QpsCell(pooled_attr)});
    PrintRow(std::string(label) + " link",
             {QpsCell(legacy_link), QpsCell(serial_link), speedup_link,
              QpsCell(pooled_link)});
    if (exclude == nullptr) {
      legacy_attr_qps = legacy_attr;
      engine_attr_qps = serial_attr;
      legacy_link_qps = legacy_link;
      engine_link_qps = serial_link;
    }
  };

  PrintRow("mode / query", {"legacy", "exact-1t", "speedup",
                            "exact-" + std::to_string(num_threads) + "t"});
  bench_mode("score-all", nullptr);
  bench_mode("recommend", &graph);
  telemetry.legacy_attr_qps = legacy_attr_qps;
  telemetry.exact_attr_qps = engine_attr_qps;
  telemetry.legacy_link_qps = legacy_link_qps;
  telemetry.exact_link_qps = engine_link_qps;
  std::printf(
      "  single-thread exact vs legacy: attr %.1fx, link %.1fx (bitwise "
      "identical scores; see the pruned section for the >= 5x serving "
      "acceptance)\n",
      engine_attr_qps / legacy_attr_qps, engine_link_qps / legacy_link_qps);

  // ---- Per-query latency (batch of one, serial engine) ------------------
  PrintHeader("Serving latency", "batch=1, single thread, p50 / p99");
  const auto latency_queries = MakeQueries(n, 256, 31);
  std::vector<double> attr_times, link_times;
  for (const auto& q : latency_queries) {
    WallTimer t;
    serial_engine->TopKAttributes({q}, nullptr);
    attr_times.push_back(t.ElapsedSeconds());
  }
  for (const auto& q : latency_queries) {
    WallTimer t;
    serial_engine->TopKTargets({q}, nullptr);
    link_times.push_back(t.ElapsedSeconds());
  }
  const Latency attr_lat = Percentiles(attr_times);
  const Latency link_lat = Percentiles(link_times);
  telemetry.attr_p50_us = attr_lat.p50 * 1e6;
  telemetry.attr_p99_us = attr_lat.p99 * 1e6;
  telemetry.link_p50_us = link_lat.p50 * 1e6;
  telemetry.link_p99_us = link_lat.p99 * 1e6;
  PrintRow("query", {"p50", "p99"});
  PrintRow("attr", {MicrosCell(attr_lat.p50), MicrosCell(attr_lat.p99)});
  PrintRow("link", {MicrosCell(link_lat.p50), MicrosCell(link_lat.p99)});

  // ---- Pruned (IVF) mode: QPS + measured recall@k -----------------------
  PrintHeader("Pruned (IVF) serving",
              "link queries, clusters=sqrt(n), recall vs exact top-" +
                  std::to_string(kTopK));
  serve::IvfOptions ivf;
  ivf.pool = &pool;
  WallTimer build_timer;
  PANE_CHECK_OK(serial_engine->BuildPrunedIndex(ivf));
  const double build_seconds = build_timer.ElapsedSeconds();
  std::printf("  index build: %s (%lld link clusters)\n",
              TimeCell(build_seconds).c_str(),
              static_cast<long long>(
                  serial_engine->link_index().num_clusters()));

  const auto recall_queries = MakeQueries(n, 512, 41);
  const std::vector<Ranking> exact =
      serial_engine->TopKTargets(recall_queries, nullptr);
  WallTimer legacy_timer;
  for (const auto& q : recall_queries) {
    LegacyTopKTargets(embedding, scorer, q.node, q.k, nullptr);
  }
  const double legacy_qps =
      recall_queries.size() / legacy_timer.ElapsedSeconds();
  double accepted_speedup = 0.0, accepted_recall = 0.0;
  int64_t accepted_nprobe = 0;
  PrintRow("nprobe", {"QPS-1t", "recall@10", "vs legacy"});
  for (const int64_t nprobe : {1, 2, 4, 8, 16, 32}) {
    if (nprobe > serial_engine->link_index().num_clusters()) break;
    WallTimer t;
    const std::vector<Ranking> approx =
        serial_engine->TopKTargetsPruned(recall_queries, nprobe, nullptr);
    const double qps = recall_queries.size() / t.ElapsedSeconds();
    double recall = 0.0;
    for (size_t i = 0; i < exact.size(); ++i) {
      recall += serve::RecallAtK(exact[i], approx[i]);
    }
    recall /= static_cast<double>(exact.size());
    telemetry.pruned.push_back({nprobe, qps, recall});
    const double speedup = qps / legacy_qps;
    char vs[32];
    std::snprintf(vs, sizeof(vs), "%.1fx", speedup);
    PrintRow("nprobe=" + std::to_string(nprobe),
             {QpsCell(qps), Cell(recall), vs});
    if (recall >= 0.9 && speedup > accepted_speedup) {
      accepted_speedup = speedup;
      accepted_recall = recall;
      accepted_nprobe = nprobe;
    }
  }
  if (accepted_nprobe > 0) {
    std::printf(
        "  acceptance: pruned nprobe=%lld is %.1fx legacy single-thread at "
        "recall@10=%.3f (target >= 5x at recall >= 0.9); exact mode "
        "%.1fx attr / %.1fx link, bitwise-identical\n",
        static_cast<long long>(accepted_nprobe), accepted_speedup,
        accepted_recall, engine_attr_qps / legacy_attr_qps,
        engine_link_qps / legacy_link_qps);
  }

  // ---- Sharded scaling (the scatter-gather router) ----------------------
  // Local fleets: the candidate space cut into N row shards, each scanned
  // by a *serial* engine, batches fanned out across the pool — so the
  // speedup column is what sharding itself buys over one serial scan of
  // the whole space. Both sides run the identical PaneServer::ExecuteBatch
  // path (parse, validate, dedup; caches off so every query is scored).
  PrintHeader("Sharded scaling",
              "router over N local row shards (serial engines, fan-out on " +
                  std::to_string(num_threads) +
                  " threads) vs an unsharded serial server");
  const std::string artifact_path =
      (std::filesystem::temp_directory_path() /
       ("bench_serve_shard_" + std::to_string(::getpid()) + ".ctn"))
          .string();
  {
    NodeEmbedding artifact;
    artifact.method = "pane";
    artifact.xf = embedding.xf;
    artifact.xb = embedding.xb;
    artifact.y = embedding.y;
    artifact.features.Resize(n, 2 * h);
    artifact.features.SetBlock(0, 0, embedding.xf);
    artifact.features.SetBlock(0, h, embedding.xb);
    artifact.link_convention = LinkConvention::kForwardBackward;
    artifact.attribute_convention = AttributeConvention::kFactors;
    PANE_CHECK_OK(artifact.SaveContainer(artifact_path));
  }
  auto sharded_store = serve::EmbeddingStore::Open(artifact_path);
  PANE_CHECK(sharded_store.ok()) << sharded_store.status();

  const auto shard_queries = MakeQueries(n, engine_queries, 61);
  std::vector<std::string> attr_payloads, link_payloads;
  for (const auto& q : shard_queries) {
    attr_payloads.push_back("attr " + std::to_string(q.node) + " " +
                            std::to_string(q.k));
    link_payloads.push_back("link " + std::to_string(q.node) + " " +
                            std::to_string(q.k));
  }

  const auto parse_batch =
      [](const std::vector<std::string>& payloads, size_t begin, size_t end) {
        std::vector<serve::PaneServer::BatchEntry> batch;
        batch.reserve(end - begin);
        for (size_t i = begin; i < end; ++i) {
          serve::PaneServer::BatchEntry entry;
          const auto parsed = serve::ParseRequestLine(payloads[i]);
          PANE_CHECK(parsed.ok()) << parsed.status();
          entry.request = *parsed;
          batch.push_back(std::move(entry));
        }
        return batch;
      };
  /// Pumps `payloads` through `server` in batches of 64; returns QPS.
  const auto measure_qps = [&parse_batch](
                               serve::PaneServer* server,
                               const std::vector<std::string>& payloads) {
    std::vector<std::string> responses;
    bool quit = false;
    WallTimer timer;
    for (size_t i = 0; i < payloads.size(); i += 64) {
      auto batch = parse_batch(payloads, i,
                               std::min(payloads.size(), i + 64));
      server->ExecuteBatch(&batch, &responses, &quit);
    }
    return payloads.size() / timer.ElapsedSeconds();
  };
  /// Batch-of-one latencies over the first 128 payloads.
  const auto measure_latency = [&parse_batch](
                                   serve::PaneServer* server,
                                   const std::vector<std::string>& payloads) {
    std::vector<std::string> responses;
    std::vector<double> times;
    bool quit = false;
    const size_t count = std::min<size_t>(payloads.size(), 128);
    for (size_t i = 0; i < count; ++i) {
      auto batch = parse_batch(payloads, i, i + 1);
      WallTimer t;
      server->ExecuteBatch(&batch, &responses, &quit);
      times.push_back(t.ElapsedSeconds());
    }
    return Percentiles(std::move(times));
  };

  PrintRow("shards / mode", {"attr QPS", "link QPS", "speedup", "p50",
                             "p99"});
  double shard2_speedup = 0.0, shard4_speedup = 0.0;
  for (const bool pruned : {false, true}) {
    serve::ServerOptions shard_options;
    shard_options.cache_capacity = 0;
    shard_options.pruned = pruned;

    // Unsharded baseline: one serial engine behind the same server path.
    // The pruned baseline reuses serial_engine's already-built indexes.
    auto unsharded_engine = serve::QueryEngine::Create(
        embedding.xf.View(), embedding.xb.View(), embedding.y.View(),
        scorer.z(), serve::QueryEngineOptions());
    PANE_CHECK(unsharded_engine.ok()) << unsharded_engine.status();
    serve::QueryEngine* baseline_engine =
        pruned ? &*serial_engine : &*unsharded_engine;
    serve::PaneServer baseline(baseline_engine, shard_options);
    const double base_attr = measure_qps(&baseline, attr_payloads);
    const double base_link = measure_qps(&baseline, link_payloads);
    const Latency base_lat = measure_latency(&baseline, attr_payloads);
    const char* mode = pruned ? " pruned" : " exact";
    PrintRow("unsharded" + std::string(mode),
             {QpsCell(base_attr), QpsCell(base_link), "1.0x",
              MicrosCell(base_lat.p50), MicrosCell(base_lat.p99)});

    for (const int shards : {1, 2, 4}) {
      serve::IvfOptions shard_ivf;
      shard_ivf.pool = &pool;  // build-time only; queries stay serial
      auto fleet = serve::BuildLocalShards(
          *sharded_store, shards, serve::QueryEngineOptions(), shard_options,
          pruned ? &shard_ivf : nullptr);
      PANE_CHECK(fleet.ok()) << fleet.status();
      serve::RouterOptions router_options;
      router_options.pool = &pool;
      auto router =
          serve::Router::Create(std::move(fleet->backends), router_options);
      PANE_CHECK(router.ok()) << router.status();
      serve::PaneServer front(&*router, shard_options);
      const double attr_qps = measure_qps(&front, attr_payloads);
      const double link_qps = measure_qps(&front, link_payloads);
      const Latency lat = measure_latency(&front, attr_payloads);
      const double speedup = attr_qps / base_attr;
      char speedup_cell[32];
      std::snprintf(speedup_cell, sizeof(speedup_cell), "%.1fx", speedup);
      PrintRow(std::to_string(shards) + (shards == 1 ? " shard" : " shards") +
                   mode,
               {QpsCell(attr_qps), QpsCell(link_qps), speedup_cell,
                MicrosCell(lat.p50), MicrosCell(lat.p99)});
      if (!pruned && shards == 2) shard2_speedup = speedup;
      if (!pruned && shards == 4) shard4_speedup = speedup;
    }
  }
  std::printf(
      "  acceptance: exact attr QPS %.1fx at 2 shards (target >= 1.7x on "
      ">= 2 cores), %.1fx at 4 shards (target >= 3x on >= 4 cores); "
      "hardware_concurrency=%u — the fan-out cannot overlap on fewer "
      "cores than shards, but each shard's scan is 1/N of the unsharded "
      "one. Merged answers are byte-identical to the unsharded server "
      "(shard_test).\n",
      shard2_speedup, shard4_speedup, std::thread::hardware_concurrency());
  telemetry.shard2_speedup = shard2_speedup;
  telemetry.shard4_speedup = shard4_speedup;

  // ---- Metrics overhead (A/B) -------------------------------------------
  // The same exact attr batches through PaneServer::ExecuteBatch with the
  // metrics subsystem disabled vs enabled. Disabled means no registry, no
  // stage histograms, and no clock reads — the honest baseline for the
  // < 3% acceptance bound.
  PrintHeader("Metrics overhead",
              "exact attr batches, metrics_enabled off vs on "
              "(target < 3% QPS loss)");
  {
    serve::ServerOptions ab_options;
    ab_options.cache_capacity = 0;
    auto ab_engine = serve::QueryEngine::Create(
        embedding.xf.View(), embedding.xb.View(), embedding.y.View(),
        scorer.z(), serve::QueryEngineOptions());
    PANE_CHECK(ab_engine.ok()) << ab_engine.status();
    ab_options.metrics_enabled = false;
    serve::PaneServer off(&*ab_engine, ab_options);
    ab_options.metrics_enabled = true;
    serve::PaneServer on(&*ab_engine, ab_options);
    // Interleaved best-of-two per side: the bound is about steady-state
    // instrumentation cost, not first-touch page faults.
    double qps_off = 0.0, qps_on = 0.0;
    for (int pass = 0; pass < 2; ++pass) {
      qps_off = std::max(qps_off, measure_qps(&off, attr_payloads));
      qps_on = std::max(qps_on, measure_qps(&on, attr_payloads));
    }
    telemetry.qps_metrics_off = qps_off;
    telemetry.qps_metrics_on = qps_on;
    telemetry.metrics_overhead_pct = (qps_off - qps_on) / qps_off * 100.0;
    char overhead_cell[32];
    std::snprintf(overhead_cell, sizeof(overhead_cell), "%.2f%%",
                  telemetry.metrics_overhead_pct);
    PrintRow("metrics", {"off", "on", "overhead"});
    PrintRow("attr QPS", {QpsCell(qps_off), QpsCell(qps_on), overhead_cell});
  }

  // ---- Metrics exposition round-trip ------------------------------------
  // A 2-shard local fleet sharing one registry, driven through the full
  // session path (decode -> batch -> encode), then the `metrics` verb: the
  // shard engines must have recorded engine-scan samples and the fronting
  // router fan-out samples, all visible in one exposition.
  PrintHeader("Metrics exposition",
              "`metrics` verb round-trip, 2 local shards, one registry");
  {
    obs::MetricsRegistry registry;
    serve::ServerOptions shard2_options;
    shard2_options.cache_capacity = 0;
    shard2_options.metrics = &registry;
    serve::QueryEngineOptions shard2_engine_options;
    shard2_engine_options.metrics = &registry;
    auto fleet2 = serve::BuildLocalShards(*sharded_store, 2,
                                          shard2_engine_options,
                                          shard2_options, nullptr);
    PANE_CHECK(fleet2.ok()) << fleet2.status();
    serve::RouterOptions router2_options;
    router2_options.pool = &pool;
    router2_options.metrics = &registry;
    auto router2 = serve::Router::Create(std::move(fleet2->backends),
                                         router2_options);
    PANE_CHECK(router2.ok()) << router2.status();
    serve::PaneServer front(&*router2, shard2_options);
    std::istringstream in("attr 1 10\nlink 1 10\nmetrics\nquit\n");
    std::ostringstream out;
    front.ServeStream(in, out);
    const std::string stream = out.str();
    const size_t begin = stream.find("# TYPE");
    const size_t end_marker = stream.find("# EOF");
    PANE_CHECK(begin != std::string::npos && end_marker != std::string::npos)
        << "metrics verb answered no exposition";
    telemetry.metrics_dump = stream.substr(begin, end_marker + 5 - begin);
    const auto sample = [&telemetry](const std::string& name) -> long long {
      const std::string needle = '\n' + name + ' ';
      const size_t pos = telemetry.metrics_dump.find(needle);
      if (pos == std::string::npos) return 0;
      return std::strtoll(telemetry.metrics_dump.c_str() + pos +
                              needle.size(),
                          nullptr, 10);
    };
    telemetry.stage_scan_count = sample("pane_stage_engine_scan_us_count");
    telemetry.stage_fanout_count = sample("pane_stage_fanout_us_count");
    PANE_CHECK(telemetry.stage_scan_count > 0)
        << "shard engines recorded no engine-scan samples";
    PANE_CHECK(telemetry.stage_fanout_count > 0)
        << "router recorded no fan-out samples";
    std::printf(
        "  pane_stage_engine_scan_us_count=%lld "
        "pane_stage_fanout_us_count=%lld — shard scans and router fan-out "
        "report through one registry\n",
        static_cast<long long>(telemetry.stage_scan_count),
        static_cast<long long>(telemetry.stage_fanout_count));
  }
  std::filesystem::remove(artifact_path);

  // ---- Concurrent connections over the epoll transport ------------------
  // Every connection runs on the single loop thread; the table shows how
  // round-trip QPS scales with open connections (the loop interleaves
  // them) and what the binary framing buys over newline scanning on the
  // same conversation. The result cache is off: each frame row replays its
  // line row's seeds, so a cache would answer every frame query from the
  // line run before it and the rows would compare hits with scans. Each
  // row reports its cache hits, which must read 0.
  PrintHeader("Concurrent serving",
              "epoll transport, attr round-trips per connection, line vs "
              "frame wire, cache off");
  serve::ServerOptions server_options;
  server_options.cache_capacity = 0;
  serve::PaneServer server(&*pooled_engine, server_options);
  const auto port = server.ListenTcp(0);
  PANE_CHECK(port.ok()) << port.status();
  std::thread loop([&server] { server.AcceptLoop(); });
  const int64_t per_conn = std::max<int64_t>(32, 2000000 / n);
  PrintRow("connections / wire", {"QPS", "p50", "p99", "cache hits"});
  for (const int connections : {1, 4, 16}) {
    for (const bool framed : {false, true}) {
      std::vector<std::vector<double>> times(
          static_cast<size_t>(connections));
      const uint64_t hits_before = server.counters().cache_hits;
      WallTimer wall;
      std::vector<std::thread> clients;
      clients.reserve(static_cast<size_t>(connections));
      for (int c = 0; c < connections; ++c) {
        clients.emplace_back([&, c] {
          times[static_cast<size_t>(c)] =
              RunClient(*port, framed, per_conn, n,
                        51 + static_cast<uint64_t>(c));
        });
      }
      for (auto& client : clients) client.join();
      const double seconds = wall.ElapsedSeconds();
      std::vector<double> all;
      for (const auto& t : times) all.insert(all.end(), t.begin(), t.end());
      const Latency lat = Percentiles(std::move(all));
      ServeTelemetry::ConcurrentRow row;
      row.connections = connections;
      row.framed = framed;
      row.qps = connections * per_conn / seconds;
      row.p50_us = lat.p50 * 1e6;
      row.p99_us = lat.p99 * 1e6;
      row.cache_hits = server.counters().cache_hits - hits_before;
      PrintRow(std::to_string(connections) +
                   (framed ? " conn frame" : " conn line"),
               {QpsCell(row.qps), MicrosCell(lat.p50), MicrosCell(lat.p99),
                std::to_string(row.cache_hits)});
      telemetry.concurrent.push_back(row);
    }
  }
  server.Shutdown();
  loop.join();

  // ---- JSON telemetry snapshot ------------------------------------------
  if (!json_path.empty()) {
    std::string json = "{\n";
    json += "  \"bench\": \"serve\",\n";
    json += "  \"n\": " + std::to_string(telemetry.n) + ",\n";
    json += "  \"d\": " + std::to_string(telemetry.d) + ",\n";
    json += "  \"h\": " + std::to_string(telemetry.h) + ",\n";
    json += "  \"legacy_attr_qps\": " +
            JsonNumber(telemetry.legacy_attr_qps) + ",\n";
    json += "  \"exact_attr_qps\": " +
            JsonNumber(telemetry.exact_attr_qps) + ",\n";
    json += "  \"legacy_link_qps\": " +
            JsonNumber(telemetry.legacy_link_qps) + ",\n";
    json += "  \"exact_link_qps\": " +
            JsonNumber(telemetry.exact_link_qps) + ",\n";
    json += "  \"attr_p50_us\": " + JsonNumber(telemetry.attr_p50_us) + ",\n";
    json += "  \"attr_p99_us\": " + JsonNumber(telemetry.attr_p99_us) + ",\n";
    json += "  \"link_p50_us\": " + JsonNumber(telemetry.link_p50_us) + ",\n";
    json += "  \"link_p99_us\": " + JsonNumber(telemetry.link_p99_us) + ",\n";
    json += "  \"pruned\": [";
    for (size_t i = 0; i < telemetry.pruned.size(); ++i) {
      const auto& row = telemetry.pruned[i];
      json += i == 0 ? "\n" : ",\n";
      json += "    {\"nprobe\": " + std::to_string(row.nprobe) +
              ", \"qps\": " + JsonNumber(row.qps) +
              ", \"recall_at_" + std::to_string(kTopK) +
              "\": " + JsonNumber(row.recall) + "}";
    }
    json += "\n  ],\n";
    json += "  \"shard2_speedup\": " +
            JsonNumber(telemetry.shard2_speedup) + ",\n";
    json += "  \"shard4_speedup\": " +
            JsonNumber(telemetry.shard4_speedup) + ",\n";
    json += "  \"qps_metrics_off\": " +
            JsonNumber(telemetry.qps_metrics_off) + ",\n";
    json += "  \"qps_metrics_on\": " +
            JsonNumber(telemetry.qps_metrics_on) + ",\n";
    json += "  \"metrics_overhead_pct\": " +
            JsonNumber(telemetry.metrics_overhead_pct) + ",\n";
    json += "  \"stage_scan_count\": " +
            std::to_string(telemetry.stage_scan_count) + ",\n";
    json += "  \"stage_fanout_count\": " +
            std::to_string(telemetry.stage_fanout_count) + ",\n";
    json += "  \"concurrent\": [";
    for (size_t i = 0; i < telemetry.concurrent.size(); ++i) {
      const auto& row = telemetry.concurrent[i];
      json += i == 0 ? "\n" : ",\n";
      json += "    {\"connections\": " + std::to_string(row.connections) +
              ", \"wire\": \"" + (row.framed ? "frame" : "line") +
              "\", \"qps\": " + JsonNumber(row.qps) +
              ", \"p50_us\": " + JsonNumber(row.p50_us) +
              ", \"p99_us\": " + JsonNumber(row.p99_us) +
              ", \"cache_hits\": " + std::to_string(row.cache_hits) + "}";
    }
    json += "\n  ],\n";
    json += "  \"metrics_dump\": \"" + JsonEscape(telemetry.metrics_dump) +
            "\"\n";
    json += "}";
    WriteJsonFile(json_path, json);
  }
}

}  // namespace bench
}  // namespace pane

int main(int argc, char** argv) {
  pane::FlagSet flags;
  flags.AddString("json", "",
                  "write a JSON telemetry snapshot (QPS, latency "
                  "percentiles, recall sweep, metrics exposition) to this "
                  "path, e.g. BENCH_serve.json");
  PANE_CHECK_OK(flags.Parse(argc, argv));
  pane::bench::Run(flags.GetString("json"));
  return 0;
}
