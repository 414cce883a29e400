#include "src/serve/router.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/common/timer.h"
#include "src/matrix/gemm.h"
#include "src/parallel/thread_pool.h"
#include "src/serve/embedding_store.h"
#include "src/serve/frame_protocol.h"

namespace pane {
namespace serve {
namespace {

/// The one degradation payload: every query touched by an unreachable
/// shard answers this, never a top-k silently merged from a subset.
const char kShardUnavailable[] = "err shard unavailable";

ServerOptions ShardServerOptions(const ServerOptions& options) {
  ServerOptions shard = options;
  shard.cache_capacity = 0;  // the router's cache is the only cache
  shard.slow_query_us = 0;   // only the fronting server logs slow queries
  return shard;
}

}  // namespace

// ---- LocalShard ----------------------------------------------------------

LocalShard::LocalShard(const QueryEngine* engine,
                       const ServerOptions& options, int shard_index)
    : server_(engine, ShardServerOptions(options)),
      name_("local:" + std::to_string(shard_index)) {}

Status LocalShard::Execute(const std::vector<std::string>& requests,
                           std::vector<std::string>* responses) {
  std::vector<PaneServer::BatchEntry> batch;
  batch.reserve(requests.size());
  for (const std::string& payload : requests) {
    PaneServer::BatchEntry entry;
    const auto parsed = ParseRequestLine(payload);
    if (parsed.ok()) {
      entry.request = *parsed;
    } else {
      entry.parse_error = true;
      entry.error = parsed.status().message();
    }
    batch.push_back(std::move(entry));
  }
  bool quit = false;
  server_.ExecuteBatch(&batch, responses, &quit);
  return Status::OK();
}

// ---- RemoteShard ---------------------------------------------------------

RemoteShard::RemoteShard(std::string address, const RouterOptions& options)
    : address_(std::move(address)),
      hop_timeout_ms_(options.hop_timeout_ms),
      max_frame_payload_(options.max_frame_bytes > 0
                             ? static_cast<size_t>(options.max_frame_bytes)
                             : kMaxFramePayload) {}

Status RemoteShard::EnsureConnected(int64_t deadline_ms) {
  if (conn_.connected()) return Status::OK();
  const auto budget = [deadline_ms]() {
    return deadline_ms - ShardConnection::NowMs();
  };
  // Retry the connect once: a shard restarting between batches costs one
  // extra round, not a dead hop.
  Status status = conn_.Connect(address_, budget());
  if (!status.ok() && budget() > 0) {
    status = conn_.Connect(address_, budget());
  }
  return status;
}

Status RemoteShard::Execute(const std::vector<std::string>& requests,
                            std::vector<std::string>* responses) {
  const int64_t deadline_ms = ShardConnection::NowMs() + hop_timeout_ms_;
  PANE_RETURN_NOT_OK(EnsureConnected(deadline_ms));

  std::string wire;
  for (const std::string& payload : requests) {
    AppendFrame(payload, &wire);
  }
  Status status = conn_.SendAll(wire, deadline_ms);
  if (!status.ok()) {
    conn_.Close();
    return status;
  }

  FrameCodec codec(max_frame_payload_);
  std::string buffer;
  size_t pos = 0;
  responses->clear();
  responses->reserve(requests.size());
  while (responses->size() < requests.size()) {
    std::string_view payload;
    std::string error;
    const ProtocolCodec::Decoded decoded =
        codec.Decode(buffer, &pos, &payload, &error);
    if (decoded == ProtocolCodec::Decoded::kMessage) {
      responses->emplace_back(payload);
      continue;
    }
    if (decoded == ProtocolCodec::Decoded::kNeedMore) {
      status = conn_.RecvSome(&buffer, deadline_ms);
      if (!status.ok()) {
        conn_.Close();
        return status;
      }
      continue;
    }
    conn_.Close();
    return Status::IOError("bad frame from shard " + address_ + ": " + error);
  }
  return Status::OK();
}

// ---- Router --------------------------------------------------------------

Result<Router> Router::Create(
    std::vector<std::unique_ptr<ShardBackend>> shards,
    const RouterOptions& options) {
  if (shards.empty()) {
    return Status::InvalidArgument("router needs at least one shard");
  }
  Router router;
  router.options_ = options;
  router.shards_ = std::move(shards);
  router.health_mutex_ = std::make_unique<Mutex>();
  router.health_.resize(router.shards_.size());
  for (size_t i = 0; i < router.health_.size(); ++i) {
    if (options.metrics != nullptr) {
      router.health_[i].latency = options.metrics->GetHistogram(
          "pane_router_hop_us", "shard=\"" + std::to_string(i) + "\"");
    } else {
      router.owned_latency_.push_back(std::make_unique<obs::Histogram>());
      router.health_[i].latency = router.owned_latency_.back().get();
    }
  }

  // Plan handshake: every backend reports its spec; together they must
  // tile one consistent plan. Sequential — startup, not the hot path.
  std::vector<ShardSpec> specs;
  specs.reserve(router.shards_.size());
  const std::vector<std::string> plan_request = {"plan"};
  for (size_t i = 0; i < router.shards_.size(); ++i) {
    std::vector<std::string> replies;
    PANE_RETURN_NOT_OK(router.shards_[i]->Execute(plan_request, &replies));
    if (replies.size() != 1) {
      return Status::IOError("shard " + router.shards_[i]->describe() +
                             " answered " + std::to_string(replies.size()) +
                             " payloads to `plan`");
    }
    PANE_ASSIGN_OR_RETURN(ShardSpec spec, ParsePlanResponse(replies[0]));
    specs.push_back(std::move(spec));
  }
  PANE_RETURN_NOT_OK(ValidateShardSpecs(specs, &router.plan_));
  const int64_t now = ShardConnection::NowMs();
  for (ShardHealth& h : router.health_) h.last_alive_ms = now;
  return router;
}

Status Router::CallShard(size_t shard,
                         const std::vector<std::string>& requests,
                         std::vector<std::string>* responses) {
  const int64_t start_us = MonotonicMicros();
  const Status status = shards_[shard]->Execute(requests, responses);
  const int64_t elapsed_us = MonotonicMicros() - start_us;
  MutexLock lock(health_mutex_.get());
  ShardHealth& h = health_[shard];
  h.requests += requests.size();
  if (status.ok()) {
    h.alive = true;
    h.last_alive_ms = ShardConnection::NowMs();
    h.latency->Record(elapsed_us);
  } else {
    h.alive = false;
    h.errors += requests.size();
  }
  return status;
}

void Router::ForEachShard(const std::function<void(size_t)>& fn) {
  const int64_t count = static_cast<int64_t>(shards_.size());
  if (options_.pool != nullptr && options_.pool->num_threads() > 1 &&
      count > 1) {
    ParallelFor(options_.pool, 0, count, [&fn](int64_t begin, int64_t end) {
      for (int64_t s = begin; s < end; ++s) {
        fn(static_cast<size_t>(s));
      }
    });
  } else {
    for (int64_t s = 0; s < count; ++s) fn(static_cast<size_t>(s));
  }
}

std::vector<std::string> Router::MergeTopKFamily(
    const std::vector<Request>& requests, Request::Type type,
    obs::RequestTrace* trace) {
  std::vector<std::string> out(requests.size());
  if (requests.empty()) return out;
  std::vector<std::string> payloads;
  payloads.reserve(requests.size());
  for (const Request& r : requests) payloads.push_back(FormatRequest(r));

  const size_t num_shards = shards_.size();
  std::vector<std::vector<std::string>> replies(num_shards);
  std::vector<Status> statuses(num_shards, Status::OK());
  // rankings[i][s]: request i's already-sorted ranking from shard s. A
  // shard reply that fails to parse demotes the shard to unavailable —
  // merging a garbled ranking would break the bitwise guarantee. Parsing
  // runs inside the fan-out (each task touches only its own column s), so
  // the serial tail is just the merge + reformat below.
  std::vector<std::vector<Ranking>> rankings(
      requests.size(), std::vector<Ranking>(num_shards));
  const int64_t fanout_start_us =
      trace != nullptr ? MonotonicMicros() : 0;
  ForEachShard([&](size_t s) {
    statuses[s] = CallShard(s, payloads, &replies[s]);
    if (!statuses[s].ok()) return;
    if (replies[s].size() != requests.size()) {
      statuses[s] = Status::IOError("shard answered a short batch");
      return;
    }
    for (size_t i = 0; i < requests.size(); ++i) {
      const Status parsed = ParseRankingResponse(
          replies[s][i], type, requests[i].a, &rankings[i][s]);
      if (!parsed.ok()) {
        statuses[s] = parsed;
        return;
      }
    }
  });
  const int64_t merge_start_us = trace != nullptr ? MonotonicMicros() : 0;
  if (trace != nullptr) {
    trace->Add(obs::Stage::kFanout, merge_start_us - fanout_start_us);
  }
  for (size_t s = 0; s < num_shards; ++s) {
    if (statuses[s].ok()) continue;
    PANE_LOG(WARNING) << "shard " << shards_[s]->describe()
                      << " unavailable: " << statuses[s].message();
    for (std::string& response : out) response = kShardUnavailable;
    return out;
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    out[i] = FormatRanking(requests[i],
                           MergeTopK(rankings[i], requests[i].k));
  }
  if (trace != nullptr) {
    trace->Add(obs::Stage::kMerge, MonotonicMicros() - merge_start_us);
  }
  return out;
}

std::vector<std::string> Router::TopKAttributes(
    const std::vector<Request>& requests, obs::RequestTrace* trace) {
  return MergeTopKFamily(requests, Request::Type::kTopKAttributes, trace);
}

std::vector<std::string> Router::TopKTargets(
    const std::vector<Request>& requests, obs::RequestTrace* trace) {
  return MergeTopKFamily(requests, Request::Type::kTopKTargets, trace);
}

size_t Router::OwnerShard(int64_t id, bool by_attribute) const {
  for (size_t s = 0; s < plan_.shards.size(); ++s) {
    const ShardSpec& spec = plan_.shards[s];
    const int64_t begin = by_attribute ? spec.attr_begin : spec.node_begin;
    const int64_t end = by_attribute ? spec.attr_end : spec.node_end;
    if (id >= begin && id < end) return s;
  }
  PANE_CHECK(false) << "candidate id " << id
                    << " outside the validated plan ranges";
  return 0;
}

std::vector<std::string> Router::RoutePairs(
    const std::vector<Request>& requests, bool by_attribute,
    obs::RequestTrace* trace) {
  std::vector<std::string> out(requests.size());
  if (requests.empty()) return out;
  const size_t num_shards = shards_.size();
  std::vector<std::vector<std::string>> payloads(num_shards);
  std::vector<std::vector<size_t>> owners(num_shards);
  for (size_t i = 0; i < requests.size(); ++i) {
    const size_t s = OwnerShard(requests[i].b, by_attribute);
    payloads[s].push_back(FormatRequest(requests[i]));
    owners[s].push_back(i);
  }
  std::vector<std::vector<std::string>> replies(num_shards);
  std::vector<Status> statuses(num_shards, Status::OK());
  const int64_t fanout_start_us =
      trace != nullptr ? MonotonicMicros() : 0;
  ForEachShard([&](size_t s) {
    if (payloads[s].empty()) return;
    statuses[s] = CallShard(s, payloads[s], &replies[s]);
    if (statuses[s].ok() && replies[s].size() != payloads[s].size()) {
      statuses[s] = Status::IOError("shard answered a short batch");
    }
  });
  const int64_t merge_start_us = trace != nullptr ? MonotonicMicros() : 0;
  if (trace != nullptr) {
    trace->Add(obs::Stage::kFanout, merge_start_us - fanout_start_us);
  }
  // Pair responses forward verbatim: the shard already formats
  // "pattr <a> <b> ok <score>", byte-equal to the unsharded server's. A
  // dead owner degrades only its own pairs — the other shards' answers
  // stand.
  for (size_t s = 0; s < num_shards; ++s) {
    if (payloads[s].empty()) continue;
    if (!statuses[s].ok()) {
      PANE_LOG(WARNING) << "shard " << shards_[s]->describe()
                        << " unavailable: " << statuses[s].message();
      for (const size_t i : owners[s]) out[i] = kShardUnavailable;
      continue;
    }
    for (size_t j = 0; j < owners[s].size(); ++j) {
      out[owners[s][j]] = std::move(replies[s][j]);
    }
  }
  if (trace != nullptr) {
    trace->Add(obs::Stage::kMerge, MonotonicMicros() - merge_start_us);
  }
  return out;
}

std::vector<std::string> Router::AttributeScores(
    const std::vector<Request>& requests, obs::RequestTrace* trace) {
  return RoutePairs(requests, /*by_attribute=*/true, trace);
}

std::vector<std::string> Router::LinkScores(
    const std::vector<Request>& requests, obs::RequestTrace* trace) {
  return RoutePairs(requests, /*by_attribute=*/false, trace);
}

std::string Router::StatsSuffix() const {
  std::string out;
  const int64_t now = ShardConnection::NowMs();
  MutexLock lock(health_mutex_.get());
  for (size_t s = 0; s < health_.size(); ++s) {
    const ShardHealth& h = health_[s];
    const obs::Histogram::Snapshot latency = h.latency->TakeSnapshot();
    const std::string prefix = " shard" + std::to_string(s) + '.';
    out += prefix + "requests=" + std::to_string(h.requests);
    out += prefix + "errors=" + std::to_string(h.errors);
    out += prefix + "p50_us=" + std::to_string(latency.p50);
    out += prefix + "p99_us=" + std::to_string(latency.p99);
    out += prefix + "max_us=" + std::to_string(latency.max);
    out += prefix + "alive=" + (h.alive ? "1" : "0");
    out += prefix + "age_ms=" + std::to_string(now - h.last_alive_ms);
  }
  return out;
}

// ---- BuildLocalShards ----------------------------------------------------

Result<LocalFleet> BuildLocalShards(const EmbeddingStore& store,
                                    int num_shards,
                                    const QueryEngineOptions& engine_options,
                                    const ServerOptions& shard_options,
                                    const IvfOptions* ivf) {
  if (num_shards <= 0) {
    return Status::InvalidArgument("shard count must be positive");
  }
  if (store.sharded()) {
    return Status::InvalidArgument(
        "store already holds one shard; local fleets cut an unsharded "
        "artifact");
  }
  if (!store.has_attribute_factors()) {
    return Status::InvalidArgument(
        "sharding needs the xf/xb/y factor blocks (artifact method '" +
        store.method() + "' lacks them)");
  }
  const ConstMatrixView xf = store.xf();
  const ConstMatrixView xb = store.xb();
  const ConstMatrixView y = store.y();
  const int64_t n = xf.rows();
  const int64_t d = y.rows();
  const int64_t h = xf.cols();

  LocalFleet fleet;
  // Full Z once, then row slices: bitwise the unsharded engine's Z.
  LinkCandidateRows(xb, y, &fleet.z);

  const ShardPlan plan = MakeShardPlan(n, d, num_shards);
  for (const ShardSpec& ranges : plan.shards) {
    ShardSpec spec = ranges;
    spec.dim = h;
    spec.has_attributes = true;
    spec.has_links = true;
    spec.method = store.method();
    ConstMatrixView y_slice, z_slice;
    if (spec.attr_end > spec.attr_begin) {
      y_slice = ConstMatrixView(y.Row(spec.attr_begin),
                                spec.attr_end - spec.attr_begin, h);
    }
    if (spec.node_end > spec.node_begin) {
      z_slice = ConstMatrixView(fleet.z.Row(spec.node_begin),
                                spec.node_end - spec.node_begin, h);
    }
    PANE_ASSIGN_OR_RETURN(
        QueryEngine engine,
        QueryEngine::CreateSharded(xf, xb, y_slice, z_slice, spec,
                                   engine_options));
    auto owned = std::make_unique<QueryEngine>(std::move(engine));
    if (ivf != nullptr) {
      PANE_RETURN_NOT_OK(owned->BuildPrunedIndex(*ivf));
    }
    fleet.backends.push_back(std::make_unique<LocalShard>(
        owned.get(), shard_options,
        static_cast<int>(spec.shard_index)));
    fleet.engines.push_back(std::move(owned));
  }
  return fleet;
}

}  // namespace serve
}  // namespace pane
