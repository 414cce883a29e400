// Top-level PANE driver: Algorithm 1 (single thread) and Algorithm 5
// (parallel), assembling affinity approximation (APMI / PAPMI), greedy
// initialization (GreedyInit / engine-aware SMGreedyInit) and CCD
// refinement (SVDCCD / PSVDCCD) into one Train() call, under one memory
// budget: --memory-budget-mb sizes the affinity panel scratch and CCD's
// release granule, and decides whether the pipeline's four n x d factors
// (F', B', Sf, Sb) live in RAM or in memory-mapped spill slabs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/common/status.h"
#include "src/core/affinity_engine.h"
#include "src/core/ccd.h"
#include "src/core/embedding.h"
#include "src/graph/graph.h"
#include "src/matrix/factor_slab.h"

namespace pane {

struct PaneOptions {
  /// Space budget k: each node gets Xf, Xb of length k/2, each attribute a
  /// Y of length k/2. Must be even. Paper default: 128.
  int k = 128;
  /// Random-walk stopping probability. Paper default: 0.5.
  double alpha = 0.5;
  /// Error threshold; sets t = ceil(log(eps)/log(1-alpha) - 1). Paper
  /// default: 0.015.
  double epsilon = 0.015;
  /// nb of Algorithm 5. 1 => the single-thread Algorithm 1 code paths.
  int num_threads = 1;
  /// CCD sweeps; 0 => use the derived t (Algorithm 1 behaviour). The
  /// Figures 7-8 experiments sweep this explicitly.
  int ccd_iterations = 0;
  /// Single whole-pipeline memory budget in MiB (--memory-budget-mb). Sizes
  /// the affinity engine's panel scratch and CCD's release granule, and —
  /// under SlabPolicy::kAuto — spills the four n x d factor slabs to
  /// memory-mapped files whenever 4 n d doubles exceed the budget, so
  /// graphs whose factors exceed RAM still run. 0 => unbounded, all in RAM.
  /// Spilled and in-RAM runs produce bitwise-identical embeddings.
  int64_t memory_budget_mb = 0;
  /// Slab backing decision; kAuto applies the budget rule above, kInRam /
  /// kMmap force the factors in RAM or spilled (benches, tests).
  SlabPolicy slab_policy = SlabPolicy::kAuto;
  /// Directory for spill files ("" => the system temp directory). Files are
  /// removed when their slab is destroyed, including on error paths.
  std::string spill_dir;
  /// false => PANE-R: random instead of greedy initialization (Section 5.7).
  bool greedy_init = true;
  /// Seed for RandSVD sketches / random init.
  uint64_t seed = 42;
};

/// \brief Checks a PaneOptions for validity: k even and > 0, plus
/// ValidatePipelineOptions. Called up front by Pane::Train and by the api
/// layer's option validation.
Status ValidatePaneOptions(const PaneOptions& options);

/// \brief The checks Pane::Train and RefreshEmbedding share: alpha and
/// epsilon in (0, 1), num_threads >= 1, ccd_iterations >= 0,
/// memory_budget_mb >= 0.
Status ValidatePipelineOptions(double alpha, double epsilon, int num_threads,
                               int ccd_iterations, int64_t memory_budget_mb);

/// \brief Where one run keeps its four n x d factors (F', B', Sf, Sb).
struct SlabStorage {
  FactorSlab::Backing backing = FactorSlab::Backing::kInRam;
  /// Residency pool shared by every spilled slab, budgeted at half the
  /// pipeline budget (the other half stays with the panel scratch and the
  /// rows CCD streams between releases); nullptr when the factors stay in
  /// RAM. Must outlive the slabs.
  std::unique_ptr<store::BufferPool> buffer_pool;
  /// The four factors' total size, 4 n d doubles.
  int64_t slab_bytes = 0;
};

/// \brief The one budget -> backing decision of Pane::Train and
/// RefreshEmbedding: ResolveSlabBacking on the four factors, and a spill
/// goes through one BufferPool as kPooled slabs.
SlabStorage PlanSlabStorage(SlabPolicy policy, int64_t memory_budget_mb,
                            int64_t n, int64_t d);

/// \brief Phase timings and diagnostics from one Train() run.
struct PaneStats {
  int t = 0;                      ///< derived iteration count
  double affinity_seconds = 0.0;  ///< APMI / PAPMI phase
  AffinityEngineStats affinity;   ///< panel decomposition + scratch bytes
  double init_seconds = 0.0;      ///< GreedyInit / SMGreedyInit phase
  double ccd_seconds = 0.0;       ///< CCD refinement phase
  double total_seconds = 0.0;
  double objective_initial = 0.0;  ///< Equation (4) right after init
  double objective_final = 0.0;    ///< Equation (4) after refinement
  bool slabs_spilled = false;      ///< factors lived in mmap spill slabs
  bool pooled_spill = false;       ///< spilled via the BufferPool (every spill)
  int64_t slab_bytes = 0;          ///< the four n x d factors (F',B',Sf,Sb)
  int init_blocks_overlapped = 0;  ///< init block SVDs run during affinity
  CcdStats ccd;                    ///< CCD scratch
  store::BufferPool::Stats pool;   ///< eviction/write-back counters (pooled)
};

/// \brief Trains PANE embeddings on an attributed graph.
class Pane {
 public:
  explicit Pane(PaneOptions options) : options_(options) {}

  /// Runs the full pipeline. `stats` (optional) receives phase timings.
  Result<PaneEmbedding> Train(const AttributedGraph& graph,
                              PaneStats* stats = nullptr) const;

  const PaneOptions& options() const { return options_; }

 private:
  PaneOptions options_;
};

}  // namespace pane
