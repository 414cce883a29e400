// FactorSlab: the row-major n x d factor store behind every big matrix in
// the PANE pipeline — the affinity outputs F' / B' and the CCD residuals
// Sf / Sb. A slab has one of three interchangeable backings:
//
//   kInRam   a DenseMatrix, the historical in-memory shape;
//   kMmap    a memory-mapped spill file (MAP_SHARED on an unlinked-on-
//            destruction temp file) whose releases drop their pages at
//            once; ResolveSlabBacking returns it to mean "spill";
//   kPooled  the same spill mapping, but with residency managed by a shared
//            store::BufferPool — pages stay resident until pool-wide budget
//            pressure evicts them (clock policy, pool-page granularity).
//            The training pipeline spills through this backing.
//
// All backings expose the same flat row-major address space, so every
// kernel runs one code path regardless of where the bytes live — which is
// what makes spilled and in-RAM runs bitwise identical. The RowBlock API
// (AcquireRows / ReleaseRows) adds residency management on top: releasing a
// block of a spilled slab drops (kMmap) or offers for eviction (kPooled)
// its pages; dirty pages are scheduled for write-back to the spill file and
// survive in the page cache, so re-acquisition is lossless. For the in-RAM
// backing every release is a no-op, so callers sprinkle releases
// unconditionally.
#pragma once

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/matrix/dense_matrix.h"
#include "src/store/buffer_pool.h"

namespace pane {

class FactorSlab {
 public:
  enum class Backing {
    kInRam,   ///< DenseMatrix storage
    kMmap,    ///< memory-mapped spill file, self-managed residency
    kPooled,  ///< memory-mapped spill file, BufferPool-managed residency
  };

  /// Empty in-RAM slab (0 x 0).
  FactorSlab() = default;

  /// Wraps an existing DenseMatrix as an in-RAM slab (implicit on purpose:
  /// small tests and benches build slabs straight from dense matrices).
  FactorSlab(DenseMatrix dense);  // NOLINT(runtime/explicit)

  /// Deep copy, preserving the backing except that a kPooled source copies
  /// into a self-managed kMmap slab (the copy has no claim on the source's
  /// pool). Aborts on spill I/O failure — copies are a test / bench
  /// convenience, not a production path; production code moves.
  FactorSlab(const FactorSlab& other);
  FactorSlab& operator=(const FactorSlab& other);

  FactorSlab(FactorSlab&& other) noexcept;
  FactorSlab& operator=(FactorSlab&& other) noexcept;

  /// Replaces contents with `dense`, switching to the in-RAM backing (any
  /// previous spill file is removed).
  FactorSlab& operator=(DenseMatrix dense);

  /// Unmaps and unlinks the spill file when spilled.
  ~FactorSlab();

  /// \brief Creates a zero-filled rows x cols slab. For kMmap / kPooled,
  /// the spill file is created in `spill_dir` (empty => the system temp
  /// directory); on any failure nothing is left behind on disk. kPooled
  /// additionally requires `pool`, which must outlive the slab.
  static Result<FactorSlab> Create(int64_t rows, int64_t cols,
                                   Backing backing,
                                   const std::string& spill_dir = "",
                                   store::BufferPool* pool = nullptr);

  /// \brief Creates a slab holding a copy of `dense` under the requested
  /// backing.
  static Result<FactorSlab> FromDense(const DenseMatrix& dense,
                                      Backing backing,
                                      const std::string& spill_dir = "",
                                      store::BufferPool* pool = nullptr);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size_bytes() const {
    return rows_ * cols_ * static_cast<int64_t>(sizeof(double));
  }
  bool empty() const { return rows_ * cols_ == 0; }
  Backing backing() const { return backing_; }
  bool spilled() const { return backing_ != Backing::kInRam; }
  /// Path of the spill file ("" for in-RAM slabs).
  const std::string& spill_path() const { return spill_path_; }

  double* Row(int64_t i) { return base_ + i * cols_; }
  const double* Row(int64_t i) const { return base_ + i * cols_; }
  double* data() { return base_; }
  const double* data() const { return base_; }

  /// Read-only view of the whole slab / a contiguous row range; feeds the
  /// view-based GEMM and RandSVD kernels without copying under either
  /// backing.
  ConstMatrixView View() const {
    return ConstMatrixView(base_, rows_, cols_);
  }
  ConstMatrixView ViewRows(int64_t row_begin, int64_t row_end) const;

  /// \brief Zero-copy mutable view of rows [row_begin, row_end).
  struct RowBlock {
    double* data = nullptr;
    int64_t row_begin = 0;
    int64_t row_end = 0;
    int64_t cols = 0;

    int64_t rows() const { return row_end - row_begin; }
    /// Row pointer by absolute slab row index.
    double* Row(int64_t i) { return data + (i - row_begin) * cols; }
    const double* Row(int64_t i) const {
      return data + (i - row_begin) * cols;
    }
  };

  /// For a kPooled slab this also pins the block's pages against eviction
  /// until the matching release.
  RowBlock AcquireRows(int64_t row_begin, int64_t row_end);

  /// \brief Returns a block to the slab. In-RAM: no-op. kMmap: if `dirty`,
  /// schedules asynchronous write-back of the block's pages to the spill
  /// file, then drops the fully-contained pages from this process's resident
  /// set (inward page rounding, so concurrent neighbors on boundary pages
  /// are never touched). kPooled: unpins the pages and hands them to the
  /// pool, which evicts only under budget pressure. Content is preserved in
  /// every case — the page cache keeps the authoritative copy until
  /// write-back completes.
  Status ReleaseRows(const RowBlock& block, bool dirty);
  Status ReleaseRowRange(int64_t row_begin, int64_t row_end,
                         bool dirty) const;

  /// \brief Drops every resident (kPooled: resident unpinned) page of a
  /// spilled slab (no-op in RAM). Called at phase boundaries so one phase's
  /// sweep does not stay resident through the next.
  Status DropResidency() const;

  /// Reshapes (zero-filled). In-RAM slabs only — spilled slabs are created
  /// at final shape.
  void Resize(int64_t rows, int64_t cols);

  /// Materializes the slab as a DenseMatrix (copies under either backing).
  Result<DenseMatrix> ToDense() const;

  /// sqrt(sum of squares), accumulated in row-major element order (matches
  /// DenseMatrix::FrobeniusNorm bitwise).
  double FrobeniusNorm() const;

  double MaxAbsDiff(const DenseMatrix& other) const;
  double MaxAbsDiff(const FactorSlab& other) const;

 private:
  Status InitMmap(int64_t rows, int64_t cols, const std::string& spill_dir);
  void Destroy();

  Backing backing_ = Backing::kInRam;
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  DenseMatrix dense_;       // kInRam storage
  double* base_ = nullptr;  // dense_.data() or the mapping base
  void* map_ = nullptr;     // spill mapping (nullptr when empty / in-RAM)
  int64_t map_bytes_ = 0;
  std::string spill_path_;  // "" when in-RAM
  store::BufferPool* pool_ = nullptr;  // kPooled only; not owned
  store::BufferPool::RegionId region_ = -1;
};

/// \brief How the pipeline chooses a slab backing. kAuto spills exactly when
/// a memory budget is set and the resident slab total would exceed it;
/// kInRam / kMmap force the factors in RAM or spilled (benches, tests).
enum class SlabPolicy { kAuto, kInRam, kMmap };

/// \brief kInRam or kMmap ("spill"); the pipeline's PlanSlabStorage
/// (src/core/pane.h) turns a spill into kPooled slabs over one BufferPool.
FactorSlab::Backing ResolveSlabBacking(SlabPolicy policy,
                                       int64_t memory_budget_mb,
                                       int64_t resident_slab_bytes);

/// \brief The streaming passes' release policy, in one place: residency
/// failures are advisory (the data is intact, only the RSS bound slips), so
/// they log a warning instead of aborting the computation. No-ops for
/// in-RAM slabs, like the underlying calls.
void ReleaseRowsOrWarn(const FactorSlab& slab, int64_t row_begin,
                       int64_t row_end, bool dirty);
void DropResidencyOrWarn(const FactorSlab& slab);

}  // namespace pane
