// The scatter-gather layer of the sharded serving fabric. A Router fronts
// N shard backends — each one EmbeddingStore slice + QueryEngine, either
// in-process (LocalShard) or a remote pane_server reached over the frame
// protocol (RemoteShard) — and answers every query with byte-exactly the
// payload an unsharded server would produce:
//
//   top-k    fan the request out to every shard, parse each shard's
//            already-sorted ranking (global ids), k-way MergeTopK under the
//            (score desc, index asc) total order, reformat. Scores print
//            with %.17g on the shard and parse with strtod here, which
//            round-trips doubles exactly, so parse -> merge -> reformat is
//            byte-stable.
//   pairs    route to the single shard owning the candidate row (pattr by
//            attribute range, pair by target-node range) and forward the
//            response verbatim.
//
// At Create the router handshakes each backend with the `plan` verb and
// cross-validates the reported specs: every shard must agree on the global
// (n, d, dim) and the ranges must tile [0, n) and [0, d) exactly — a fleet
// mixing shards of two different splits is an error at startup, not wrong
// answers at query time.
//
// Degradation: each hop runs under a configurable deadline; a shard that
// cannot be reached (after one reconnect attempt) marks itself dead and
// every query in the affected batch answers `err shard unavailable` —
// top-k answers are never silently computed from a subset of shards. Per-
// shard health (requests, errors, p50/p99/max hop latency, last-alive
// age) is surfaced through StatsSuffix on the router's `stats` response;
// hop latencies live in per-shard `pane_router_hop_us` histograms
// (src/obs/metrics.h), shared with the Prometheus exposition when the
// router is built over a MetricsRegistry.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/sync.h"
#include "src/matrix/dense_matrix.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/line_protocol.h"
#include "src/serve/server.h"
#include "src/serve/shard_plan.h"
#include "src/serve/transport.h"

namespace pane {

class ThreadPool;

namespace serve {

struct RouterOptions {
  /// Per-hop budget covering connect + send + receive for one batch.
  int64_t hop_timeout_ms = 2000;
  /// Inbound bound on one shard-reply frame (0 = kMaxFramePayload).
  int64_t max_frame_bytes = 0;
  /// Fans batches out across shards concurrently. Null => sequential hops.
  /// Local shards run serial engines, so this pool is the parallelism.
  ThreadPool* pool = nullptr;
  /// Optional registry for the per-shard hop-latency histograms
  /// (pane_router_hop_us{shard="N"}). Null keeps the histograms
  /// router-private (stats still reports them); the registry must outlive
  /// the router.
  obs::MetricsRegistry* metrics = nullptr;
};

/// One shard as the router sees it: a batch of request payloads in, one
/// response payload per request out. Implementations are single-owner —
/// the router serializes calls per backend (fan-out parallelism is across
/// backends, never into one).
class ShardBackend {
 public:
  virtual ~ShardBackend() = default;

  /// Executes `requests` (line-protocol payloads) as one batch and fills
  /// one response payload per request, in order. A non-OK status means the
  /// shard is unreachable or answered garbage; the router degrades the
  /// whole batch.
  virtual Status Execute(const std::vector<std::string>& requests,
                         std::vector<std::string>* responses) = 0;

  /// Stable human-readable identity ("local:2", "127.0.0.1:7071").
  virtual const std::string& describe() const = 0;
};

/// In-process shard: a sharded QueryEngine behind an internal PaneServer
/// (cache disabled — the router's own cache is the only cache), so local
/// and remote hops answer through the identical ExecuteBatch path.
class LocalShard final : public ShardBackend {
 public:
  /// `engine` must outlive the shard. `options` mirrors the fronting
  /// server's serving semantics (pruned / nprobe / exclude); its cache is
  /// forced off here.
  LocalShard(const QueryEngine* engine, const ServerOptions& options,
             int shard_index);

  Status Execute(const std::vector<std::string>& requests,
                 std::vector<std::string>* responses) override;
  const std::string& describe() const override { return name_; }

 private:
  PaneServer server_;
  std::string name_;
};

/// Remote shard: one blocking ShardConnection speaking the frame protocol,
/// reconnecting (once per Execute) after a drop, with every batch under
/// the router's hop deadline.
class RemoteShard final : public ShardBackend {
 public:
  RemoteShard(std::string address, const RouterOptions& options);

  Status Execute(const std::vector<std::string>& requests,
                 std::vector<std::string>* responses) override;
  const std::string& describe() const override { return address_; }

 private:
  Status EnsureConnected(int64_t deadline_ms);

  std::string address_;
  int64_t hop_timeout_ms_;
  size_t max_frame_payload_;
  ShardConnection conn_;
};

class Router {
 public:
  /// Handshakes every backend with `plan`, validates that the specs tile
  /// one consistent shard plan, and adopts the fleet. At least one shard;
  /// every shard must be reachable at create time.
  static Result<Router> Create(
      std::vector<std::unique_ptr<ShardBackend>> shards,
      const RouterOptions& options);

  Router(Router&&) = default;
  Router& operator=(Router&&) = default;

  // ---- Plan-derived introspection (mirrors QueryEngine's) ---------------
  int64_t num_nodes() const { return plan_.num_nodes; }
  int64_t num_attributes() const { return plan_.num_attributes; }
  int64_t dim() const { return plan_.shards[0].dim; }
  bool supports_attributes() const {
    return plan_.shards[0].has_attributes;
  }
  bool supports_links() const { return plan_.shards[0].has_links; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

  // ---- Query execution --------------------------------------------------
  // Each call takes pre-validated requests of one family and returns one
  // formatted response payload (no wire framing) per request, in order. A
  // non-null `trace` gets the fan-out and merge stage times stamped onto
  // it (the caller owns recording them into histograms).

  /// Fan-out + merge for kTopKAttributes requests.
  std::vector<std::string> TopKAttributes(
      const std::vector<Request>& requests,
      obs::RequestTrace* trace = nullptr);
  /// Fan-out + merge for kTopKTargets requests.
  std::vector<std::string> TopKTargets(const std::vector<Request>& requests,
                                       obs::RequestTrace* trace = nullptr);
  /// Owner-shard routing for kAttributePair requests.
  std::vector<std::string> AttributeScores(
      const std::vector<Request>& requests,
      obs::RequestTrace* trace = nullptr);
  /// Owner-shard routing for kLinkPair requests.
  std::vector<std::string> LinkScores(const std::vector<Request>& requests,
                                      obs::RequestTrace* trace = nullptr);

  /// " shard0.requests=.. shard0.errors=.. shard0.p50_us=..
  /// shard0.p99_us=.. shard0.max_us=.. shard0.alive=.. shard0.age_ms=..
  /// shard1. ..." — appended to the stats response. The p50_us field keeps
  /// its pre-histogram position and spelling; p99_us / max_us are the
  /// histogram's additions.
  std::string StatsSuffix() const;

 private:
  struct ShardHealth {
    uint64_t requests = 0;
    uint64_t errors = 0;
    /// Hop-latency histogram: registry-owned when RouterOptions.metrics is
    /// set, else one of owned_latency_'s. Never null after Create.
    obs::Histogram* latency = nullptr;
    int64_t last_alive_ms = 0;
    bool alive = true;
  };

  Router() = default;

  /// One tracked hop: delegates to the backend, records latency / health.
  Status CallShard(size_t shard, const std::vector<std::string>& requests,
                   std::vector<std::string>* responses);
  /// Runs fn(shard) for every shard, across the pool when present.
  void ForEachShard(const std::function<void(size_t)>& fn);
  /// Shared fan-out + parse + merge path for both top-k families.
  std::vector<std::string> MergeTopKFamily(
      const std::vector<Request>& requests, Request::Type type,
      obs::RequestTrace* trace);
  /// Shared owner-routing path for both pair families.
  std::vector<std::string> RoutePairs(const std::vector<Request>& requests,
                                      bool by_attribute,
                                      obs::RequestTrace* trace);
  /// Index of the shard whose range holds this candidate id.
  size_t OwnerShard(int64_t id, bool by_attribute) const;

  RouterOptions options_;
  ShardPlan plan_;
  std::vector<std::unique_ptr<ShardBackend>> shards_;

  mutable std::unique_ptr<Mutex> health_mutex_;  // unique_ptr: movable
  std::vector<ShardHealth> health_;
  /// Backing storage for ShardHealth::latency when no registry is supplied
  /// (unique_ptrs: addresses survive Router moves).
  std::vector<std::unique_ptr<obs::Histogram>> owned_latency_;
};

/// A complete in-process shard fleet over one unsharded store: Z derived
/// once (bitwise the unsharded engine's), candidate matrices row-sliced
/// per MakeShardPlan, one serial sharded QueryEngine per shard, one
/// LocalShard backend per engine. The struct owns everything the backends
/// borrow, so keep it alive as long as the Router.
struct LocalFleet {
  DenseMatrix z;
  std::vector<std::unique_ptr<QueryEngine>> engines;
  std::vector<std::unique_ptr<ShardBackend>> backends;
};

/// Builds `num_shards` local shards over `store` (which must stay alive
/// and hold attribute factors). `shard_options` carries the serving
/// semantics for the per-shard servers (pruned / nprobe / exclude);
/// `ivf` non-null builds each shard's pruned indexes with those options.
/// Give `engine_options` no pool (serial shard engines): each shard engine
/// runs inside a worker of the router's fan-out pool, and an engine that
/// split a batch over that same pool would nest RunBlocks on it, which can
/// deadlock.
Result<LocalFleet> BuildLocalShards(const EmbeddingStore& store,
                                    int num_shards,
                                    const QueryEngineOptions& engine_options,
                                    const ServerOptions& shard_options,
                                    const IvfOptions* ivf);

}  // namespace serve
}  // namespace pane
