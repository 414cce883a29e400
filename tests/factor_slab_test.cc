// Tests for the FactorSlab storage layer: backing equivalence, the
// RowBlock acquire/release protocol (content must survive residency drops),
// spill-file lifecycle (created sized, removed on destruction and on error
// paths), and the backing-decision rule the pipeline budget uses.
#include "src/matrix/factor_slab.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <utility>

#include "src/common/random.h"

namespace pane {
namespace {

namespace fs = std::filesystem;

DenseMatrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix m(rows, cols);
  m.FillGaussian(&rng);
  return m;
}

TEST(FactorSlabTest, InRamRoundTrip) {
  auto slab = FactorSlab::Create(5, 3, FactorSlab::Backing::kInRam)
                  .ValueOrDie();
  EXPECT_EQ(slab.rows(), 5);
  EXPECT_EQ(slab.cols(), 3);
  EXPECT_FALSE(slab.spilled());
  EXPECT_TRUE(slab.spill_path().empty());
  slab.Row(2)[1] = 7.5;
  EXPECT_EQ(slab.Row(2)[1], 7.5);
  const DenseMatrix dense = slab.ToDense().ValueOrDie();
  EXPECT_EQ(dense(2, 1), 7.5);
  EXPECT_EQ(dense(0, 0), 0.0);
}

TEST(FactorSlabTest, WrapsDenseMatrixInRam) {
  const DenseMatrix source = RandomMatrix(8, 4, 1);
  FactorSlab slab(source);
  EXPECT_FALSE(slab.spilled());
  EXPECT_EQ(slab.MaxAbsDiff(source), 0.0);
  EXPECT_EQ(slab.ToDense().ValueOrDie().MaxAbsDiff(source), 0.0);
}

TEST(FactorSlabTest, MmapCreateWriteReadAndCleanup) {
  std::string path;
  {
    auto slab = FactorSlab::Create(64, 16, FactorSlab::Backing::kMmap)
                    .ValueOrDie();
    ASSERT_TRUE(slab.spilled());
    path = slab.spill_path();
    ASSERT_FALSE(path.empty());
    ASSERT_TRUE(fs::exists(path));
    EXPECT_EQ(static_cast<int64_t>(fs::file_size(path)),
              slab.size_bytes());
    // Zero-initialized like the in-RAM backing.
    EXPECT_EQ(slab.Row(63)[15], 0.0);
    slab.Row(10)[3] = -2.25;
    EXPECT_EQ(slab.Row(10)[3], -2.25);
  }
  // Destruction removes the spill file.
  EXPECT_FALSE(fs::exists(path));
}

TEST(FactorSlabTest, ReleasePreservesContent) {
  // Dirty write-back + residency drop must be lossless: re-acquired rows
  // come back with the written values (from the page cache / spill file).
  auto slab = FactorSlab::Create(2048, 32, FactorSlab::Backing::kMmap)
                  .ValueOrDie();
  FactorSlab::RowBlock block = slab.AcquireRows(256, 1024);
  for (int64_t i = block.row_begin; i < block.row_end; ++i) {
    block.Row(i)[0] = static_cast<double>(i);
  }
  ASSERT_TRUE(slab.ReleaseRows(block, /*dirty=*/true).ok());
  ASSERT_TRUE(slab.DropResidency().ok());
  FactorSlab::RowBlock again = slab.AcquireRows(256, 1024);
  for (int64_t i = again.row_begin; i < again.row_end; ++i) {
    ASSERT_EQ(again.Row(i)[0], static_cast<double>(i)) << "row " << i;
  }
  ASSERT_TRUE(slab.ReleaseRows(again, /*dirty=*/false).ok());
}

TEST(FactorSlabTest, MmapMatchesDenseBitwise) {
  const DenseMatrix source = RandomMatrix(40, 12, 2);
  auto slab =
      FactorSlab::FromDense(source, FactorSlab::Backing::kMmap).ValueOrDie();
  EXPECT_EQ(slab.MaxAbsDiff(source), 0.0);
  EXPECT_EQ(slab.FrobeniusNorm(), source.FrobeniusNorm());
  const DenseMatrix round = slab.ToDense().ValueOrDie();
  EXPECT_EQ(round.MaxAbsDiff(source), 0.0);
}

TEST(FactorSlabTest, CopyPreservesBackingAndData) {
  const DenseMatrix source = RandomMatrix(20, 6, 3);
  auto original =
      FactorSlab::FromDense(source, FactorSlab::Backing::kMmap).ValueOrDie();
  FactorSlab copy = original;
  EXPECT_TRUE(copy.spilled());
  EXPECT_NE(copy.spill_path(), original.spill_path());
  EXPECT_EQ(copy.MaxAbsDiff(original), 0.0);
  // Writes do not alias.
  copy.Row(0)[0] += 1.0;
  EXPECT_EQ(original.MaxAbsDiff(source), 0.0);
}

TEST(FactorSlabTest, MoveTransfersSpillOwnership) {
  auto original = FactorSlab::Create(16, 4, FactorSlab::Backing::kMmap)
                      .ValueOrDie();
  const std::string path = original.spill_path();
  original.Row(3)[2] = 9.0;
  FactorSlab moved = std::move(original);
  EXPECT_TRUE(fs::exists(path));
  EXPECT_EQ(moved.spill_path(), path);
  EXPECT_EQ(moved.Row(3)[2], 9.0);
  EXPECT_TRUE(original.spill_path().empty());  // NOLINT(bugprone-use-after-move)
  moved = FactorSlab();
  EXPECT_FALSE(fs::exists(path));  // destroyed with its last owner
}

TEST(FactorSlabTest, CreateFailsCleanlyInMissingDir) {
  const std::string missing = "/nonexistent_pane_spill_dir_for_test";
  ASSERT_FALSE(fs::exists(missing));
  const auto slab =
      FactorSlab::Create(8, 8, FactorSlab::Backing::kMmap, missing);
  EXPECT_FALSE(slab.ok());
  EXPECT_TRUE(slab.status().IsIOError());
  EXPECT_FALSE(fs::exists(missing));  // nothing left behind
}

TEST(FactorSlabTest, EmptySlabNeedsNoFile) {
  auto slab =
      FactorSlab::Create(0, 16, FactorSlab::Backing::kMmap).ValueOrDie();
  EXPECT_TRUE(slab.empty());
  EXPECT_TRUE(slab.spill_path().empty());
  EXPECT_TRUE(slab.DropResidency().ok());
}

TEST(FactorSlabTest, AssignDenseReplacesSpill) {
  auto slab = FactorSlab::Create(16, 4, FactorSlab::Backing::kMmap)
                  .ValueOrDie();
  const std::string path = slab.spill_path();
  slab = DenseMatrix({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(slab.spilled());
  EXPECT_EQ(slab.Row(1)[0], 3.0);
}

TEST(ResolveSlabBackingTest, AutoFollowsBudget) {
  using Backing = FactorSlab::Backing;
  // No budget => always RAM.
  EXPECT_EQ(ResolveSlabBacking(SlabPolicy::kAuto, 0, int64_t{1} << 40),
            Backing::kInRam);
  // Budget covers the slabs => RAM; smaller => spill.
  EXPECT_EQ(ResolveSlabBacking(SlabPolicy::kAuto, 64, 32 << 20),
            Backing::kInRam);
  EXPECT_EQ(ResolveSlabBacking(SlabPolicy::kAuto, 16, 32 << 20),
            Backing::kMmap);
  // Forced policies ignore the budget.
  EXPECT_EQ(ResolveSlabBacking(SlabPolicy::kInRam, 1, 32 << 20),
            Backing::kInRam);
  EXPECT_EQ(ResolveSlabBacking(SlabPolicy::kMmap, 0, 0), Backing::kMmap);
}

}  // namespace
}  // namespace pane
