// The AVX2 half of the mul-add peak probe; compiled with -mavx2 and
// -ffp-contract=off (see CMakeLists.txt), selected only when the CPU
// reports AVX2.
#include <cstdint>

#if defined(__x86_64__) && defined(__AVX2__)
#include <immintrin.h>

namespace perfbench {

// 12 independent multiply-then-add chains of 4 doubles each: enough chains
// to cover the mul + add latency on two vector ports.
double MulAddChainsAvx2(int64_t iters, double seed, int64_t* flops) {
  constexpr int kChains = 12;
  const __m256d m = _mm256_set1_pd(0.9999999);
  const __m256d a = _mm256_set1_pd(1e-7 * seed);
  __m256d acc[kChains];
  for (int j = 0; j < kChains; ++j) {
    acc[j] = _mm256_set1_pd(1.0 + 1e-3 * j + 1e-9 * seed);
  }
  for (int64_t i = 0; i < iters; ++i) {
    for (int j = 0; j < kChains; ++j) {
      acc[j] = _mm256_add_pd(_mm256_mul_pd(acc[j], m), a);
    }
  }
  __m256d sum = acc[0];
  for (int j = 1; j < kChains; ++j) sum = _mm256_add_pd(sum, acc[j]);
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, sum);
  *flops = iters * kChains * 4 * 2;
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

}  // namespace perfbench
#endif
