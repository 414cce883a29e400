// Shared fixtures for the algorithm tests: the paper's Figure 1 running
// example, small SBM instances, their affinity slabs and init options; and a
// container stream rewriter for the loaders' rejection tests.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/core/affinity_engine.h"
#include "src/core/greedy_init.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/store/container.h"

namespace pane {
namespace testing {

/// The extended-graph running example of Figure 1 (6 nodes, 3 attributes).
/// Edges transcribed from the figure; v1 (index 0) and v2 (index 1) carry no
/// attributes, exercising the degenerate-walk footnote.
inline AttributedGraph Figure1Graph() {
  GraphBuilder builder(6, 3);
  builder.AddEdge(0, 2).AddEdge(2, 0);  // v1 <-> v3
  builder.AddEdge(0, 4).AddEdge(4, 0);  // v1 <-> v5
  builder.AddEdge(1, 2);                // v2 -> v3
  builder.AddEdge(2, 3);                // v3 -> v4
  builder.AddEdge(3, 0);                // v4 -> v1
  builder.AddEdge(4, 5);                // v5 -> v6
  builder.AddEdge(5, 3);                // v6 -> v4
  builder.AddNodeAttribute(2, 0, 1.0);  // v3 - r1
  builder.AddNodeAttribute(3, 0, 1.0);  // v4 - r1
  builder.AddNodeAttribute(4, 0, 1.0);  // v5 - r1
  builder.AddNodeAttribute(2, 1, 1.0);  // v3 - r2
  builder.AddNodeAttribute(4, 1, 1.0);  // v5 - r2
  builder.AddNodeAttribute(5, 2, 1.0);  // v6 - r3
  return builder.Build(false).ValueOrDie();
}

/// Small homophilous SBM instance for end-to-end quality tests.
inline AttributedGraph SmallSbm(uint64_t seed = 12, int64_t n = 400,
                                bool undirected = false) {
  SbmParams params;
  params.num_nodes = n;
  params.num_edges = 6 * n;
  params.num_attributes = 80;
  params.num_attr_entries = 8 * n;
  params.num_communities = 4;
  params.edge_homophily = 0.85;
  params.attr_homophily = 0.85;
  params.undirected = undirected;
  params.seed = seed;
  return GenerateAttributedSbm(params);
}

/// (F', B') of `g` through the production engine, serial and in RAM, with
/// t derived from (epsilon, alpha) as Pane::Train derives it.
inline AffinitySlabs GraphAffinity(const AttributedGraph& g,
                                   double alpha = 0.5,
                                   double epsilon = 0.015) {
  AffinityEngineOptions options;
  options.alpha = alpha;
  options.t = ComputeIterationCount(epsilon, alpha);
  AffinitySlabs affinity;
  PANE_CHECK_OK(ComputeGraphAffinityIntoSlabs(g, options, &affinity));
  return affinity;
}

/// Options for the init family's slab entry points, in-RAM residuals.
inline InitOptions MakeInitOptions(int k, int t, ThreadPool* pool = nullptr,
                                   uint64_t seed = 42) {
  InitOptions options;
  options.k = k;
  options.t = t;
  options.pool = pool;
  options.seed = seed;
  return options;
}

/// Rewrites the store:: container at `path` with `edit` applied to the
/// payload of stream `name`. Every page is laid out and checksummed afresh,
/// so a loader that rejects the result did so on the edited content, not on
/// a CRC mismatch.
inline void RewriteContainerStream(
    const std::string& path, const std::string& name,
    const std::function<void(std::string*)>& edit) {
  std::vector<std::pair<std::string, std::string>> payloads;
  std::vector<store::PageType> types;
  {
    const store::Container container =
        store::Container::Open(path).ValueOrDie();
    for (const store::StreamEntry& entry : container.streams()) {
      const std::string stream(entry.name);
      const store::Container::StreamView view =
          container.Read(stream).ValueOrDie();
      payloads.emplace_back(
          stream, view.bytes > 0
                      ? std::string(view.data, static_cast<size_t>(view.bytes))
                      : std::string());
      types.push_back(view.type);
    }
  }
  bool found = false;
  for (auto& [stream, bytes] : payloads) {
    if (stream == name) {
      edit(&bytes);
      found = true;
    }
  }
  PANE_CHECK(found) << "no stream '" << name << "' in " << path;
  // The writer keeps pointers, so register only once every payload is final.
  store::ContainerWriter writer;
  for (size_t i = 0; i < payloads.size(); ++i) {
    PANE_CHECK_OK(writer.AddStream(
        payloads[i].first, types[i], payloads[i].second.data(),
        static_cast<int64_t>(payloads[i].second.size())));
  }
  PANE_CHECK_OK(writer.WriteTo(path));
}

}  // namespace testing
}  // namespace pane
