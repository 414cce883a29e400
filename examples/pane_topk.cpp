// Offline top-k reference client: answers the same line protocol as
// pane_server, but through a direct, independent implementation of the
// paper's two prediction scores — a full scan with Eq. 21 / Eq. 22 scoring
// and deterministic nth_element selection, no serving engine involved.
//
// Its job is differential testing: feed the same request script to a
// pane_server (exact mode) and to pane_topk over the same artifact and
// `diff` the outputs — they must be byte-identical, since both paths
// produce bitwise-equal scores and rank under the same (score desc, index
// asc) order. tests/e2e/serve.sh does exactly that. Don't script
// `stats` into a diffed run; it is server-side only.
//
// With --protocol=frame the same conversation runs over the binary
// length-prefixed framing of frame_protocol.h instead of lines, so the
// frame leg of the differential harness can `cmp` server and reference
// bytes too.
//
//   ./pane_topk --embedding=emb.bin [--graph=/data/cora] < queries.txt
#include <iostream>
#include <iterator>
#include <string>

#include "src/api/node_embedding.h"
#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/common/topk.h"
#include "src/core/embedding.h"
#include "src/graph/graph_io.h"
#include "src/parallel/thread_pool.h"
#include "src/serve/frame_protocol.h"
#include "src/serve/line_protocol.h"
#include "src/serve/protocol.h"
#include "src/serve/shard_plan.h"

namespace {

using pane::serve::Request;

// The pre-serving-subsystem per-query scan: score every candidate, keep
// the k best under the deterministic ranking order.
pane::Ranking ScanAttributes(const pane::PaneEmbedding& embedding, int64_t v,
                             int64_t k, const pane::AttributedGraph* exclude) {
  pane::Ranking candidates;
  candidates.reserve(static_cast<size_t>(embedding.num_attributes()));
  for (int64_t r = 0; r < embedding.num_attributes(); ++r) {
    if (exclude != nullptr && exclude->attributes().At(v, r) != 0.0) continue;
    candidates.emplace_back(r, embedding.AttributeScore(v, r));
  }
  return pane::SelectTopK(std::move(candidates), k);
}

pane::Ranking ScanTargets(const pane::PaneEmbedding& embedding,
                          const pane::EdgeScorer& scorer, int64_t u, int64_t k,
                          const pane::AttributedGraph* exclude) {
  pane::Ranking candidates;
  candidates.reserve(static_cast<size_t>(embedding.num_nodes()));
  for (int64_t v = 0; v < embedding.num_nodes(); ++v) {
    if (v == u) continue;
    if (exclude != nullptr && exclude->adjacency().At(u, v) != 0.0) continue;
    candidates.emplace_back(v, scorer.Score(u, v));
  }
  return pane::SelectTopK(std::move(candidates), k);
}

/// Answers one request payload with the same response text pane_server
/// produces (sans wire framing). Sets *quit on `quit`.
std::string Respond(const pane::PaneEmbedding& embedding,
                    const pane::EdgeScorer& scorer,
                    const pane::AttributedGraph* exclude,
                    std::string_view payload, bool* quit) {
  const auto parsed = pane::serve::ParseRequestLine(payload);
  if (!parsed.ok()) {
    return pane::serve::FormatError(parsed.status().message());
  }
  const Request& r = *parsed;
  if (r.type == Request::Type::kQuit) {
    *quit = true;
    return "bye";
  }
  if (r.type == Request::Type::kStats) return "stats ok offline";
  if (r.type == Request::Type::kMetrics) {
    // The offline scanner keeps no metrics; answer an empty but
    // well-terminated exposition so scripted differentials can still pipe
    // the same request file through both sides.
    return "# EOF";
  }
  if (r.type == Request::Type::kPlan) {
    // Same full-range 0/1 plan an unsharded pane_server reports, so the
    // shard differential (tests/e2e/shard.sh) can script `plan` through
    // both sides.
    pane::serve::ShardSpec spec;
    spec.shard_index = 0;
    spec.shard_count = 1;
    spec.num_nodes = embedding.num_nodes();
    spec.num_attributes = embedding.num_attributes();
    spec.dim = embedding.xf.cols();
    spec.node_end = spec.num_nodes;
    spec.attr_end = spec.num_attributes;
    spec.has_attributes = true;
    spec.has_links = true;
    return pane::serve::FormatPlanResponse(spec);
  }
  const int64_t n = embedding.num_nodes();
  const int64_t d = embedding.num_attributes();
  if (r.a < 0 || r.a >= n) {
    return pane::serve::FormatError("node out of range");
  }
  switch (r.type) {
    case Request::Type::kTopKAttributes:
      return pane::serve::FormatRanking(
          r, ScanAttributes(embedding, r.a, r.k, exclude));
    case Request::Type::kTopKTargets:
      return pane::serve::FormatRanking(
          r, ScanTargets(embedding, scorer, r.a, r.k, exclude));
    case Request::Type::kAttributePair:
      if (r.b < 0 || r.b >= d) {
        return pane::serve::FormatError("id out of range");
      }
      return pane::serve::FormatScore(r, embedding.AttributeScore(r.a, r.b));
    case Request::Type::kLinkPair:
      if (r.b < 0 || r.b >= n) {
        return pane::serve::FormatError("id out of range");
      }
      return pane::serve::FormatScore(r, scorer.Score(r.a, r.b));
    default:
      return pane::serve::FormatError("unsupported request");
  }
}

}  // namespace

int main(int argc, char** argv) {
  pane::FlagSet flags;
  flags.AddString("embedding", "", "NodeEmbedding artifact to score");
  flags.AddString("graph", "",
                  "optional graph for recommendation mode (same semantics "
                  "as pane_server --graph)");
  flags.AddString("protocol", "line",
                  "wire format: 'line' (newline-delimited text) or 'frame' "
                  "(length-prefixed binary)");
  PANE_CHECK_OK(flags.Parse(argc, argv));
  PANE_CHECK(!flags.GetString("embedding").empty())
      << "--embedding=<artifact> is required";

  const auto artifact =
      pane::NodeEmbedding::Load(flags.GetString("embedding"));
  PANE_CHECK(artifact.ok()) << artifact.status();
  PANE_CHECK(artifact->has_attribute_factors())
      << "pane_topk needs the xf/xb/y factor blocks (method '"
      << artifact->method << "' lacks them)";
  pane::PaneEmbedding embedding;
  embedding.xf = artifact->xf;
  embedding.xb = artifact->xb;
  embedding.y = artifact->y;
  const pane::EdgeScorer scorer(embedding);

  pane::AttributedGraph exclude_graph;
  const pane::AttributedGraph* exclude = nullptr;
  if (!flags.GetString("graph").empty()) {
    pane::ThreadPool pool(2);
    auto loaded = pane::LoadGraphAuto(flags.GetString("graph"), &pool);
    PANE_CHECK(loaded.ok()) << loaded.status();
    exclude_graph = loaded.MoveValueUnsafe();
    PANE_CHECK(exclude_graph.num_nodes() == embedding.num_nodes())
        << "graph / embedding node-count mismatch";
    exclude = &exclude_graph;
  }

  pane::serve::Protocol protocol = pane::serve::Protocol::kLine;
  PANE_CHECK(pane::serve::ParseProtocolName(flags.GetString("protocol"),
                                            &protocol) &&
             protocol != pane::serve::Protocol::kAuto)
      << "--protocol must be 'line' or 'frame', got '"
      << flags.GetString("protocol") << "'";

  bool quit = false;
  if (protocol == pane::serve::Protocol::kLine) {
    std::string line;
    while (!quit && std::getline(std::cin, line)) {
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      std::cout << Respond(embedding, scorer, exclude, line, &quit) << '\n';
    }
    return 0;
  }

  // Frame mode: stdin is a binary frame stream, not line-oriented, so slurp
  // it whole and walk it with the same codec the server uses.
  const std::string input(std::istreambuf_iterator<char>(std::cin), {});
  pane::serve::FrameCodec codec;
  std::string output;
  size_t pos = 0;
  int exit_code = 0;
  while (!quit) {
    std::string_view payload;
    std::string error;
    const auto decoded = codec.Decode(input, &pos, &payload, &error);
    if (decoded == pane::serve::ProtocolCodec::Decoded::kNeedMore) {
      if (pos < input.size()) {
        // Trailing partial frame: mirror the server's truncated-frame error.
        std::string_view unused;
        codec.DecodeFinal(input.substr(pos), &unused, &error);
        pane::serve::AppendFrame(pane::serve::FormatError(error), &output);
        exit_code = 1;
      }
      break;
    }
    if (decoded == pane::serve::ProtocolCodec::Decoded::kError) {
      pane::serve::AppendFrame(pane::serve::FormatError(error), &output);
      exit_code = 1;
      break;
    }
    pane::serve::AppendFrame(
        Respond(embedding, scorer, exclude, payload, &quit), &output);
  }
  std::cout.write(output.data(), static_cast<std::streamsize>(output.size()));
  std::cout.flush();
  return exit_code;
}
