// Tests for the CCD tile kernel (src/matrix/tile_gemm.h): every dispatch
// tier must perform exactly the documented per-element sequence — one
// rounded multiply and one rounded add or subtract per inner index, in
// ascending order — so the baseline and AVX2 builds agree bitwise with the
// scalar loop below and with each other, on every row / column tail.
#include "src/matrix/tile_gemm.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"

namespace pane {
namespace {

std::vector<std::pair<const char*, TileGemmFn>> TileGemmVariants() {
  std::vector<std::pair<const char*, TileGemmFn>> variants = {
      {"generic", detail::TileGemmGeneric}};
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (__builtin_cpu_supports("avx2")) {
    variants.emplace_back("avx2", detail::TileGemmAvx2);
  }
#endif
  return variants;
}

// The kernel's contract, one element at a time. The volatile product is
// rounded on its own even where the compiler may contract a * b + c.
void ReferenceTileGemm(int64_t m, int64_t n, int64_t kdim, const double* a,
                       int64_t a_rs, int64_t a_ks, const double* b,
                       int64_t ldb, double* c, int64_t ldc, bool subtract) {
  for (int64_t r = 0; r < m; ++r) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = c[r * ldc + j];
      for (int64_t p = 0; p < kdim; ++p) {
        const volatile double product =
            a[r * a_rs + p * a_ks] * b[p * ldb + j];
        acc = subtract ? acc - product : acc + product;
      }
      c[r * ldc + j] = acc;
    }
  }
}

std::vector<double> Gaussian(Rng* rng, int64_t count) {
  std::vector<double> out(static_cast<size_t>(count));
  // Mixed magnitudes make every reassociation visible in the low bits.
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = rng->Gaussian() * (i % 3 == 0 ? 1e6 : 1.0);
  }
  return out;
}

TEST(TileGemmTest, EveryTierMatchesTheScalarSequenceBitwise) {
  Rng rng(71);
  for (const int64_t m : {1, 2, 3, 4, 5, 7, 9}) {
    for (const int64_t n : {1, 2, 3, 4, 5, 7, 8, 11, 12, 13, 17, 25, 33}) {
      for (const int64_t kdim : {0, 1, 5, 33}) {
        // C carries two guard columns past n that must stay untouched.
        const int64_t ldc = n + 2;
        const int64_t ldb = n + 1;
        const std::vector<double> a = Gaussian(&rng, m * kdim);
        const std::vector<double> b = Gaussian(&rng, kdim * ldb);
        const std::vector<double> c0 = Gaussian(&rng, m * ldc);
        for (const bool transposed_a : {false, true}) {
          // A row-major (m x kdim) or addressed as the transpose of a
          // row-major kdim x m matrix.
          const int64_t a_rs = transposed_a ? 1 : kdim;
          const int64_t a_ks = transposed_a ? m : 1;
          for (const bool subtract : {false, true}) {
            std::vector<double> expected = c0;
            ReferenceTileGemm(m, n, kdim, a.data(), a_rs, a_ks, b.data(), ldb,
                              expected.data(), ldc, subtract);
            for (const auto& [name, gemm] : TileGemmVariants()) {
              const std::string what =
                  std::string(name) + " m=" + std::to_string(m) +
                  " n=" + std::to_string(n) + " k=" + std::to_string(kdim) +
                  (transposed_a ? " At" : " A") + (subtract ? " sub" : " add");
              std::vector<double> c = c0;
              gemm(m, n, kdim, a.data(), a_rs, a_ks, b.data(), ldb, c.data(),
                   ldc, subtract);
              EXPECT_EQ(std::memcmp(c.data(), expected.data(),
                                    c.size() * sizeof(double)),
                        0)
                  << what;
            }
          }
        }
      }
    }
  }
}

TEST(TileGemmTest, SplittingTheInnerDimensionChangesNoBit) {
  // CCD accumulates over node rows granule by granule; the kernel must
  // give the same bits whether the inner dimension arrives in one call or
  // in consecutive pieces.
  Rng rng(73);
  const int64_t m = 6, n = 19, kdim = 50;
  const std::vector<double> a = Gaussian(&rng, m * kdim);
  const std::vector<double> b = Gaussian(&rng, kdim * n);
  const std::vector<double> c0 = Gaussian(&rng, m * n);
  for (const auto& [name, gemm] : TileGemmVariants()) {
    std::vector<double> whole = c0;
    gemm(m, n, kdim, a.data(), kdim, 1, b.data(), n, whole.data(), n, false);
    std::vector<double> pieces = c0;
    int64_t p = 0;
    for (const int64_t len : {7, 1, 23, 19}) {
      gemm(m, n, len, a.data() + p, kdim, 1, b.data() + p * n, n,
           pieces.data(), n, false);
      p += len;
    }
    ASSERT_EQ(p, kdim);
    EXPECT_EQ(std::memcmp(whole.data(), pieces.data(),
                          whole.size() * sizeof(double)),
              0)
        << name;
  }
}

TEST(TileGemmTest, DispatchPicksAListedTier) {
  const TileGemmFn chosen = GetTileGemm();
  bool listed = false;
  for (const auto& [name, gemm] : TileGemmVariants()) {
    listed = listed || gemm == chosen;
  }
  EXPECT_TRUE(listed);
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (__builtin_cpu_supports("avx2")) {
    EXPECT_EQ(chosen, detail::TileGemmAvx2);
  }
#endif
}

}  // namespace
}  // namespace pane
