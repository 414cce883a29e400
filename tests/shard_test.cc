// The sharded scatter-gather serving fabric, end to end: the shard plan
// and its protocol text, artifact splitting (slice containers that reopen
// as shard stores), the router over in-process shard fleets and over real
// TCP backends, and the degradation path when a shard dies mid-serve.
//
// The load-bearing assertions are differential: a Router fronting 1–4
// shards must answer every scripted conversation byte-identically to an
// unsharded PaneServer over the same artifact — same scores (%.17g), same
// tie-breaks, same error text, same `plan` line. That identity is the
// fabric's contract (ISSUE 9), not an approximation.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "src/api/node_embedding.h"
#include "src/common/logging.h"
#include "src/core/pane.h"
#include "src/matrix/gemm.h"
#include "src/parallel/thread_pool.h"
#include "src/serve/embedding_store.h"
#include "src/serve/query_engine.h"
#include "src/serve/router.h"
#include "src/serve/server.h"
#include "src/serve/shard_plan.h"
#include "src/store/shard_pages.h"
#include "test_util.h"

namespace pane {
namespace {

using serve::ShardPlan;
using serve::ShardSpec;

// ---- Shard plan ---------------------------------------------------------

TEST(ShardPlanTest, TilesBothAxesContiguouslyAndNearEvenly) {
  const ShardPlan plan = serve::MakeShardPlan(10, 7, 3);
  ASSERT_EQ(plan.shards.size(), 3u);
  int64_t node_cursor = 0, attr_cursor = 0;
  for (size_t i = 0; i < plan.shards.size(); ++i) {
    const ShardSpec& s = plan.shards[i];
    EXPECT_EQ(s.shard_index, static_cast<int64_t>(i));
    EXPECT_EQ(s.shard_count, 3);
    EXPECT_EQ(s.node_begin, node_cursor);
    EXPECT_EQ(s.attr_begin, attr_cursor);
    // Near-even: no range more than one row bigger than another.
    EXPECT_GE(s.node_end - s.node_begin, 10 / 3);
    EXPECT_LE(s.node_end - s.node_begin, 10 / 3 + 1);
    node_cursor = s.node_end;
    attr_cursor = s.attr_end;
  }
  EXPECT_EQ(node_cursor, 10);
  EXPECT_EQ(attr_cursor, 7);
}

TEST(ShardPlanTest, MoreShardsThanRowsLeavesEmptySlices) {
  const ShardPlan plan = serve::MakeShardPlan(2, 1, 4);
  ASSERT_EQ(plan.shards.size(), 4u);
  // The trailing shards hold empty ranges but still tile the space.
  EXPECT_EQ(plan.shards[3].node_begin, plan.shards[3].node_end);
  EXPECT_EQ(plan.shards[1].attr_begin, plan.shards[1].attr_end);
  std::vector<ShardSpec> specs = plan.shards;
  for (ShardSpec& s : specs) s.dim = 16;
  EXPECT_TRUE(serve::ValidateShardSpecs(specs, nullptr).ok());
}

std::vector<ShardSpec> ValidSpecs(int count) {
  ShardPlan plan = serve::MakeShardPlan(100, 40, count);
  for (ShardSpec& s : plan.shards) {
    s.dim = 16;
    s.has_attributes = true;
    s.has_links = true;
  }
  return plan.shards;
}

TEST(ShardPlanTest, ValidateAcceptsAndFillsPlan) {
  ShardPlan plan;
  ASSERT_TRUE(serve::ValidateShardSpecs(ValidSpecs(3), &plan).ok());
  EXPECT_EQ(plan.num_nodes, 100);
  EXPECT_EQ(plan.num_attributes, 40);
  EXPECT_EQ(plan.shards.size(), 3u);
}

TEST(ShardPlanTest, ValidateRejectsBadFleets) {
  EXPECT_FALSE(serve::ValidateShardSpecs({}, nullptr).ok());

  // Backends passed out of plan order.
  auto swapped = ValidSpecs(3);
  std::swap(swapped[0], swapped[1]);
  EXPECT_FALSE(serve::ValidateShardSpecs(swapped, nullptr).ok());

  // A gap in the node tiling (shard 1's range shrunk).
  auto gap = ValidSpecs(3);
  gap[1].node_end -= 1;
  EXPECT_FALSE(serve::ValidateShardSpecs(gap, nullptr).ok());

  // Shards cut from different artifacts (global shape mismatch).
  auto mixed = ValidSpecs(2);
  mixed[1].num_nodes += 1;
  EXPECT_FALSE(serve::ValidateShardSpecs(mixed, nullptr).ok());
  mixed = ValidSpecs(2);
  mixed[1].dim = 32;
  EXPECT_FALSE(serve::ValidateShardSpecs(mixed, nullptr).ok());

  // A missing tail shard.
  auto truncated = ValidSpecs(3);
  truncated.pop_back();
  for (ShardSpec& s : truncated) s.shard_count = 2;
  EXPECT_FALSE(serve::ValidateShardSpecs(truncated, nullptr).ok());
}

TEST(ShardPlanTest, PlanResponseRoundTrips) {
  for (const ShardSpec& spec : ValidSpecs(3)) {
    const std::string text = serve::FormatPlanResponse(spec);
    auto parsed = serve::ParsePlanResponse(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << " for " << text;
    EXPECT_EQ(parsed->shard_index, spec.shard_index);
    EXPECT_EQ(parsed->shard_count, spec.shard_count);
    EXPECT_EQ(parsed->num_nodes, spec.num_nodes);
    EXPECT_EQ(parsed->num_attributes, spec.num_attributes);
    EXPECT_EQ(parsed->node_begin, spec.node_begin);
    EXPECT_EQ(parsed->node_end, spec.node_end);
    EXPECT_EQ(parsed->attr_begin, spec.attr_begin);
    EXPECT_EQ(parsed->attr_end, spec.attr_end);
    EXPECT_EQ(parsed->dim, spec.dim);
    EXPECT_EQ(parsed->has_attributes, spec.has_attributes);
    EXPECT_EQ(parsed->has_links, spec.has_links);
  }
}

TEST(ShardPlanTest, PlanResponseRejectsGarbage) {
  EXPECT_FALSE(serve::ParsePlanResponse("err shard unavailable").ok());
  EXPECT_FALSE(serve::ParsePlanResponse("stats ok requests=1").ok());
  EXPECT_FALSE(serve::ParsePlanResponse("").ok());
  EXPECT_FALSE(serve::ParsePlanResponse(
                   "plan ok shard=0/1 nodes=0:10/10 attrs=0:4/4 dim=16 "
                   "attr_scoring=1")  // truncated
                   .ok());
  EXPECT_FALSE(serve::ParsePlanResponse(
                   "plan ok shard=1/1 nodes=0:10/10 attrs=0:4/4 dim=16 "
                   "attr_scoring=1 link_scoring=1")  // index >= count
                   .ok());
  EXPECT_FALSE(serve::ParsePlanResponse(
                   "plan ok shard=0/1 nodes=0:11/10 attrs=0:4/4 dim=16 "
                   "attr_scoring=1 link_scoring=1")  // end > total
                   .ok());
  EXPECT_FALSE(serve::ParsePlanResponse(
                   "plan ok shard=0/1 nodes=0:10/10 attrs=0:4/4 dim=0 "
                   "attr_scoring=1 link_scoring=1")  // dim must be positive
                   .ok());
}

// ---- Trained artifact fixture -------------------------------------------

std::string ShardArtifactPath() {
  return (std::filesystem::temp_directory_path() /
          ("shard_artifact_" + std::to_string(::getpid()) + ".ctn"))
      .string();
}

// The fixture below lives for the whole binary, so its artifact is removed
// when the test program exits.
class ShardArtifactCleanup : public ::testing::Environment {
 public:
  void TearDown() override {
    std::error_code ignored;
    std::filesystem::remove(ShardArtifactPath(), ignored);
  }
};
::testing::Environment* const kShardArtifactCleanup =
    ::testing::AddGlobalTestEnvironment(new ShardArtifactCleanup);

struct ShardFixture {
  AttributedGraph graph;
  PaneEmbedding embedding;
  std::string artifact_path;

  static const ShardFixture& Get() {
    static const ShardFixture* fixture = [] {
      auto* f = new ShardFixture();
      f->graph = testing::SmallSbm(161, 300);
      PaneOptions options;
      options.k = 32;
      f->embedding = Pane(options).Train(f->graph).ValueOrDie();
      NodeEmbedding artifact;
      artifact.method = "pane";
      artifact.xf = f->embedding.xf;
      artifact.xb = f->embedding.xb;
      artifact.y = f->embedding.y;
      artifact.features.Resize(f->embedding.num_nodes(),
                               2 * f->embedding.xf.cols());
      artifact.features.SetBlock(0, 0, f->embedding.xf);
      artifact.features.SetBlock(0, f->embedding.xf.cols(), f->embedding.xb);
      artifact.link_convention = LinkConvention::kForwardBackward;
      artifact.attribute_convention = AttributeConvention::kFactors;
      f->artifact_path = ShardArtifactPath();
      PANE_CHECK_OK(artifact.SaveContainer(f->artifact_path));
      return f;
    }();
    return *fixture;
  }
};

void ExpectSameRows(ConstMatrixView view, ConstMatrixView full,
                    int64_t row_base, const std::string& what) {
  ASSERT_EQ(view.cols(), full.cols()) << what;
  for (int64_t i = 0; i < view.rows(); ++i) {
    const double* got = view.Row(i);
    const double* want = full.Row(row_base + i);
    for (int64_t j = 0; j < view.cols(); ++j) {
      ASSERT_EQ(got[j], want[j]) << what << " row " << i << " col " << j;
    }
  }
}

// ---- Artifact splitting -------------------------------------------------

TEST(ShardSplitTest, SplitContainersReopenAsShardStores) {
  const ShardFixture& f = ShardFixture::Get();
  const std::string prefix = (std::filesystem::temp_directory_path() /
                              ("shard_split_" + std::to_string(::getpid())))
                                 .string();
  std::vector<std::string> paths;
  ASSERT_TRUE(
      serve::SplitEmbeddingArtifact(f.artifact_path, prefix, 3, &paths).ok());
  ASSERT_EQ(paths.size(), 3u);

  // The expected Z, derived exactly as the splitter (and the unsharded
  // engine) derive it.
  DenseMatrix gram, z;
  GemmTransA(f.embedding.y.View(), f.embedding.y.View(), &gram);
  Gemm(f.embedding.xb.View(), gram, &z);

  const ShardPlan plan =
      serve::MakeShardPlan(f.embedding.num_nodes(),
                           f.embedding.num_attributes(), 3);
  for (size_t i = 0; i < paths.size(); ++i) {
    auto store = serve::EmbeddingStore::Open(paths[i]);
    ASSERT_TRUE(store.ok()) << store.status();
    EXPECT_TRUE(store->sharded());
    const store::ShardMeta& meta = store->shard();
    EXPECT_EQ(meta.shard_index, static_cast<int64_t>(i));
    EXPECT_EQ(meta.shard_count, 3);
    EXPECT_EQ(meta.node_begin, plan.shards[i].node_begin);
    EXPECT_EQ(meta.node_end, plan.shards[i].node_end);
    EXPECT_EQ(meta.attr_begin, plan.shards[i].attr_begin);
    EXPECT_EQ(meta.attr_end, plan.shards[i].attr_end);
    EXPECT_TRUE(meta.has_attributes);
    EXPECT_TRUE(meta.has_links);
    // Globals stay global; the slices carry the shard's rows bitwise.
    EXPECT_EQ(store->num_nodes(), f.embedding.num_nodes());
    EXPECT_EQ(store->num_attributes(), f.embedding.num_attributes());
    ExpectSameRows(store->xf(), f.embedding.xf.View(), 0, "xf");
    ExpectSameRows(store->xb(), f.embedding.xb.View(), 0, "xb");
    ExpectSameRows(store->y(), f.embedding.y.View(), meta.attr_begin, "y");
    ExpectSameRows(store->z(), z.View(), meta.node_begin, "z");
  }
  for (const std::string& path : paths) std::filesystem::remove(path);
}

TEST(ShardSplitTest, RefusesToResplitAShardContainer) {
  const ShardFixture& f = ShardFixture::Get();
  const std::string prefix = (std::filesystem::temp_directory_path() /
                              ("shard_resplit_" + std::to_string(::getpid())))
                                 .string();
  std::vector<std::string> paths;
  ASSERT_TRUE(
      serve::SplitEmbeddingArtifact(f.artifact_path, prefix, 2, &paths).ok());
  EXPECT_FALSE(
      serve::SplitEmbeddingArtifact(paths[0], prefix + ".again", 2, nullptr)
          .ok());
  for (const std::string& path : paths) std::filesystem::remove(path);
}

TEST(ShardSplitTest, RejectsShardMetaWhoseShapeOverflows) {
  // A shard.meta claiming 2^62 nodes (node range still inside it) must be
  // refused on the payload-size check without overflowing rows * dim * 8.
  const ShardFixture& f = ShardFixture::Get();
  const std::string prefix = (std::filesystem::temp_directory_path() /
                              ("shard_overflow_" + std::to_string(::getpid())))
                                 .string();
  std::vector<std::string> paths;
  ASSERT_TRUE(
      serve::SplitEmbeddingArtifact(f.artifact_path, prefix, 2, &paths).ok());
  // num_nodes is the third i64 after the u32 version and 4 flag bytes.
  constexpr size_t kNumNodesOffset = 4 + 4 + 2 * 8;
  testing::RewriteContainerStream(
      paths[0], store::kShardMetaStream, [](std::string* bytes) {
        const int64_t huge = int64_t{1} << 62;
        std::memcpy(bytes->data() + kNumNodesOffset, &huge, sizeof(huge));
      });
  const auto store = serve::EmbeddingStore::Open(paths[0]);
  ASSERT_FALSE(store.ok());
  EXPECT_TRUE(store.status().IsIOError()) << store.status();
  EXPECT_NE(store.status().message().find("shard.xf"), std::string::npos)
      << store.status();
  for (const std::string& path : paths) std::filesystem::remove(path);
}

// ---- Router differential (the fabric's contract) ------------------------

/// The scripted conversation both sides answer: all four query families,
/// boundary ids, cross-shard tie potential, out-of-range errors, `plan`,
/// and a repeat (cache path). `quit` is deliberately absent so the stream
/// drains on EOF.
std::string DifferentialScript(int64_t n, int64_t d) {
  std::ostringstream script;
  for (const int64_t v : {int64_t{0}, int64_t{1}, int64_t{7}, n / 2, n - 1}) {
    script << "attr " << v << " 5\n";
    script << "link " << v << " 5\n";
    script << "pattr " << v << " " << v % d << "\n";
    script << "pair " << v << " " << (v + 1) % n << "\n";
  }
  script << "pattr 0 " << (d - 1) << "\n";
  script << "pair 0 " << (n - 1) << "\n";
  script << "attr 0 " << (d + 10) << "\n";   // k past the candidate count
  script << "pattr 0 " << d << "\n";         // id out of range
  script << "pair 0 " << n << "\n";          // id out of range
  script << "attr " << n << " 5\n";          // node out of range
  script << "bogus request\n";               // parse error
  script << "plan\n";
  script << "attr 0 5\n";                    // repeat: cache on both sides
  return script.str();
}

std::string ServeScript(serve::PaneServer* server, const std::string& script) {
  std::istringstream in(script);
  std::ostringstream out;
  server->ServeStream(in, out);
  return out.str();
}

/// The unsharded reference transcript over the artifact store.
std::string UnshardedTranscript(const serve::EmbeddingStore& store,
                                const serve::ServerOptions& server_options,
                                const std::string& script) {
  auto engine =
      serve::QueryEngine::Create(store, serve::QueryEngineOptions());
  PANE_CHECK(engine.ok()) << engine.status();
  serve::PaneServer server(&*engine, server_options);
  return ServeScript(&server, script);
}

TEST(ShardRouterTest, LocalFleetsAnswerByteIdenticallyForAnyShardCount) {
  const ShardFixture& f = ShardFixture::Get();
  auto store = serve::EmbeddingStore::Open(f.artifact_path);
  ASSERT_TRUE(store.ok()) << store.status();
  const std::string script =
      DifferentialScript(store->num_nodes(), store->num_attributes());
  const serve::ServerOptions server_options;
  const std::string expected =
      UnshardedTranscript(*store, server_options, script);

  ThreadPool pool(4);
  for (const int shards : {1, 2, 3, 4}) {
    auto fleet = serve::BuildLocalShards(*store, shards,
                                         serve::QueryEngineOptions(),
                                         server_options, nullptr);
    ASSERT_TRUE(fleet.ok()) << fleet.status();
    serve::RouterOptions router_options;
    router_options.pool = &pool;
    auto router =
        serve::Router::Create(std::move(fleet->backends), router_options);
    ASSERT_TRUE(router.ok()) << router.status();
    EXPECT_EQ(router->num_shards(), shards);
    serve::PaneServer server(&*router, server_options);
    EXPECT_EQ(ServeScript(&server, script), expected)
        << "shards=" << shards;
  }
}

TEST(ShardRouterTest, ExclusionSemanticsSurviveSharding) {
  const ShardFixture& f = ShardFixture::Get();
  auto store = serve::EmbeddingStore::Open(f.artifact_path);
  ASSERT_TRUE(store.ok()) << store.status();
  const std::string script =
      DifferentialScript(store->num_nodes(), store->num_attributes());
  serve::ServerOptions server_options;
  server_options.exclude = &f.graph;
  const std::string expected =
      UnshardedTranscript(*store, server_options, script);

  auto fleet = serve::BuildLocalShards(*store, 3, serve::QueryEngineOptions(),
                                       server_options, nullptr);
  ASSERT_TRUE(fleet.ok()) << fleet.status();
  auto router = serve::Router::Create(std::move(fleet->backends),
                                      serve::RouterOptions());
  ASSERT_TRUE(router.ok()) << router.status();
  serve::PaneServer server(&*router, server_options);
  EXPECT_EQ(ServeScript(&server, script), expected);
}

TEST(ShardRouterTest, RejectsBackendsOutOfPlanOrder) {
  const ShardFixture& f = ShardFixture::Get();
  auto store = serve::EmbeddingStore::Open(f.artifact_path);
  ASSERT_TRUE(store.ok()) << store.status();
  auto fleet = serve::BuildLocalShards(*store, 2, serve::QueryEngineOptions(),
                                       serve::ServerOptions(), nullptr);
  ASSERT_TRUE(fleet.ok()) << fleet.status();
  std::swap(fleet->backends[0], fleet->backends[1]);
  auto router = serve::Router::Create(std::move(fleet->backends),
                                      serve::RouterOptions());
  EXPECT_FALSE(router.ok());
}

TEST(ShardRouterTest, PrunedFleetServesWellFormedRankings) {
  // Pruned answers are approximate (per-slice k-means), so no byte diff
  // against the unsharded pruned server — the contract here is shape: one
  // ok response per request, rankings non-empty for well-covered queries.
  const ShardFixture& f = ShardFixture::Get();
  auto store = serve::EmbeddingStore::Open(f.artifact_path);
  ASSERT_TRUE(store.ok()) << store.status();
  serve::ServerOptions server_options;
  server_options.pruned = true;
  server_options.nprobe = 8;
  serve::IvfOptions ivf;
  ivf.kmeans_iters = 4;
  auto fleet = serve::BuildLocalShards(*store, 3, serve::QueryEngineOptions(),
                                       server_options, &ivf);
  ASSERT_TRUE(fleet.ok()) << fleet.status();
  auto router = serve::Router::Create(std::move(fleet->backends),
                                      serve::RouterOptions());
  ASSERT_TRUE(router.ok()) << router.status();
  serve::PaneServer server(&*router, server_options);
  const std::string out =
      ServeScript(&server, "attr 3 5\nlink 3 5\nattr 42 4\nlink 42 4\n");
  std::istringstream lines(out);
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    ++count;
    EXPECT_NE(line.find(" ok "), std::string::npos) << line;
  }
  EXPECT_EQ(count, 4);
}

// ---- Remote shards over real TCP ----------------------------------------

/// One in-process shard server bound to an ephemeral loopback port.
struct TcpShard {
  std::unique_ptr<serve::EmbeddingStore> store;
  std::unique_ptr<serve::QueryEngine> engine;
  std::unique_ptr<serve::PaneServer> server;
  std::thread acceptor;
  int port = 0;

  static TcpShard Start(const std::string& path) {
    TcpShard shard;
    auto store = serve::EmbeddingStore::Open(path);
    PANE_CHECK(store.ok()) << store.status();
    shard.store = std::make_unique<serve::EmbeddingStore>(
        store.MoveValueUnsafe());
    auto engine = serve::QueryEngine::Create(*shard.store,
                                             serve::QueryEngineOptions());
    PANE_CHECK(engine.ok()) << engine.status();
    shard.engine =
        std::make_unique<serve::QueryEngine>(engine.MoveValueUnsafe());
    shard.server = std::make_unique<serve::PaneServer>(
        shard.engine.get(), serve::ServerOptions());
    auto port = shard.server->ListenTcp(0);
    PANE_CHECK(port.ok()) << port.status();
    shard.port = *port;
    shard.acceptor = std::thread(
        [server = shard.server.get()] { server->AcceptLoop(); });
    return shard;
  }

  void Stop() {
    server->Shutdown();
    if (acceptor.joinable()) acceptor.join();
  }
};

TEST(ShardRouterTest, RemoteFleetOverTcpMatchesUnshardedAndDegradesOnDeath) {
  const ShardFixture& f = ShardFixture::Get();
  const std::string prefix = (std::filesystem::temp_directory_path() /
                              ("shard_tcp_" + std::to_string(::getpid())))
                                 .string();
  std::vector<std::string> paths;
  ASSERT_TRUE(
      serve::SplitEmbeddingArtifact(f.artifact_path, prefix, 3, &paths).ok());

  std::vector<TcpShard> shards;
  for (const std::string& path : paths) shards.push_back(TcpShard::Start(path));

  serve::RouterOptions router_options;
  router_options.hop_timeout_ms = 5000;
  std::vector<std::unique_ptr<serve::ShardBackend>> backends;
  for (const TcpShard& shard : shards) {
    backends.push_back(std::make_unique<serve::RemoteShard>(
        "127.0.0.1:" + std::to_string(shard.port), router_options));
  }
  auto router = serve::Router::Create(std::move(backends), router_options);
  ASSERT_TRUE(router.ok()) << router.status();

  auto store = serve::EmbeddingStore::Open(f.artifact_path);
  ASSERT_TRUE(store.ok()) << store.status();
  const int64_t n = store->num_nodes();
  const int64_t d = store->num_attributes();
  const std::string script = DifferentialScript(n, d);
  const serve::ServerOptions server_options;
  const std::string expected =
      UnshardedTranscript(*store, server_options, script);

  // Disable the fronting cache so the post-death round below cannot be
  // answered from results cached while the shard was alive.
  serve::ServerOptions front_options;
  front_options.cache_capacity = 0;
  serve::PaneServer front(&*router, front_options);
  EXPECT_EQ(ServeScript(&front, script), expected);

  // Kill the middle shard: every fresh top-k degrades (never a partial
  // merge), pairs owned by the dead shard degrade, pairs owned by live
  // shards still answer, and the stats line reports the death.
  shards[1].Stop();
  const store::ShardMeta& dead = shards[1].store->shard();
  std::ostringstream post;
  post << "attr 5 3\n";
  post << "pattr 0 " << dead.attr_begin << "\n";        // dead shard's range
  post << "pattr 0 0\n";                                // shard 0's range
  post << "pair 0 " << (n - 1) << "\n";                 // shard 2's range
  post << "stats\n";
  const std::string out = ServeScript(&front, post.str());
  std::istringstream lines(out);
  std::string line;
  std::vector<std::string> got;
  while (std::getline(lines, line)) got.push_back(line);
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got[0], "err shard unavailable");
  EXPECT_EQ(got[1], "err shard unavailable");
  EXPECT_EQ(got[2].find("pattr 0 0 ok "), 0u) << got[2];
  EXPECT_EQ(got[3].find("pair 0 "), 0u) << got[3];
  EXPECT_NE(got[3].find(" ok "), std::string::npos) << got[3];
  EXPECT_NE(got[4].find("mode=router shards=3"), std::string::npos) << got[4];
  EXPECT_NE(got[4].find("shard1.alive=0"), std::string::npos) << got[4];
  EXPECT_NE(got[4].find("shard0.alive=1"), std::string::npos) << got[4];

  shards[0].Stop();
  shards[2].Stop();
  for (const std::string& path : paths) std::filesystem::remove(path);
}

}  // namespace
}  // namespace pane
