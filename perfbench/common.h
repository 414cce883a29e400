// Shared pieces of the benchmark harness: the seeded request generator,
// an in-memory span recorder, a small JSON writer, embedding hashing, the
// machine record and the roofline probes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/core/embedding.h"
#include "src/graph/generators.h"

namespace perfbench {

/// Seconds on the steady clock since an arbitrary epoch.
double NowSeconds();

/// Linear-interpolated quantile q in [0, 1] of `values` (0 when empty).
double Quantile(std::vector<double> values, double q);

// ---- JSON -----------------------------------------------------------------

/// Flat JSON object writer; values keep all their digits (%.17g).
class Json {
 public:
  Json& Num(const std::string& key, double value);
  Json& Int(const std::string& key, int64_t value);
  Json& Str(const std::string& key, const std::string& value);
  Json& Raw(const std::string& key, const std::string& json);
  std::string str() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// ---- Spans ----------------------------------------------------------------

/// One traced interval: a call into a layer's public function. Names are
/// string literals, so recording a span allocates nothing.
struct Span {
  const char* name = "";
  int64_t id = 0;
  int64_t parent = -1;  ///< -1 for a root span
  int64_t run = 0;      ///< run or request id shared by related spans
  double start = 0.0;
  double end = 0.0;
};

/// Records spans in memory (single-threaded callers); written out once the
/// run ends. Begin nests under the innermost open span.
class Tracer {
 public:
  int64_t Begin(const char* name, int64_t run);
  void End(int64_t id);
  /// A closed child interval measured by the program itself (for example a
  /// stage time it reports), placed under `parent`.
  void AddChild(const char* name, int64_t parent, double start, double end);

  const std::vector<Span>& spans() const { return spans_; }
  /// Sum of durations of every span named `name`.
  double Total(const char* name) const;
  /// Sum of self times (duration minus the union of child intervals).
  double Self(const char* name) const;
  /// One JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, int64_t run)
      : tracer_(tracer), id_(tracer->Begin(name, run)) {}
  ~Scope() { tracer_->End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

// ---- Inputs ---------------------------------------------------------------

/// Request mix of a serving workload: how many requests of each kind make
/// up one block (each block is shuffled, so every window of the stream
/// holds the stated mix). Node popularity is uniform when zipf_s == 0, else
/// Zipf(s) over a seeded permutation of the node ids.
struct RequestMix {
  int attr = 3;
  int link = 1;
  int pattr = 0;
  int pair = 0;
  double zipf_s = 0.0;
  int64_t k = 10;
};

/// Named mixes: "exact" (attr:link top-10 = 3:1, uniform nodes) and
/// "sharded" (attr:link:pattr:pair = 2:1:1:1, Zipf nodes).
RequestMix MixByName(const std::string& name);

/// Deterministic stream of request lines (no trailing newline).
class RequestStream {
 public:
  RequestStream(const RequestMix& mix, int64_t num_nodes,
                int64_t num_attributes, uint64_t seed);
  std::string Next();

 private:
  int64_t Node();

  RequestMix mix_;
  int64_t n_;
  int64_t d_;
  pane::Rng rng_;
  std::vector<double> zipf_cdf_;
  std::vector<int64_t> permutation_;
  std::vector<char> block_;  // request kinds left in the current block
};

/// The training workloads' attributed SBM: n nodes, d attributes,
/// |E| = |E_R| = 10 n, 10 communities.
pane::SbmParams TrainingGraph(int64_t n, int64_t d, uint64_t seed);

/// Clustered synthetic embedding: nodes and attributes belong to
/// `clusters` groups whose centroids are Gaussian, rows are centroid plus
/// noise, so IVF pruning has structure to find.
pane::PaneEmbedding MakeClusteredEmbedding(int64_t n, int64_t d, int64_t h,
                                           int64_t clusters, uint64_t seed);

/// FNV-1a over the bytes of xf, xb and y (bitwise identity check).
uint64_t HashEmbedding(const pane::PaneEmbedding& embedding);
std::string HexHash(uint64_t hash);

// ---- Machine --------------------------------------------------------------

/// Cores, ISA, dot_block dispatch, compiler and build type as JSON.
std::string MachineJson();

/// STREAM-style bandwidth: a[i] += s * b[i] over two arrays of at least
/// four times the last-level cache each, on `threads` threads; best of
/// `reps`. Bytes counted: read a, read b, write a.
double StreamGbPerSecond(int threads, int reps);

/// Peak separate multiply-then-add rate on `threads` threads, in GFLOP/s
/// (the multiply and the add each count as one flop).
double MulAddGflops(int threads, double seconds);

/// Bytes of the last-level cache (falls back to 32 MiB when unknown).
int64_t LastLevelCacheBytes();

}  // namespace perfbench
