// Roofline probes: memory bandwidth (STREAM-style) and the separate
// multiply-then-add peak. They are the denominators of every *_roof_frac.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "perfbench/common.h"

namespace perfbench {

#if defined(__x86_64__)
double MulAddChainsAvx2(int64_t iters, double seed, int64_t* flops);
#endif

namespace {

double MulAddChainsScalar(int64_t iters, double seed, int64_t* flops) {
  constexpr int kChains = 16;
  double acc[kChains];
  for (int j = 0; j < kChains; ++j) acc[j] = 1.0 + 1e-3 * j + 1e-9 * seed;
  const double m = 0.9999999;
  const double a = 1e-7 * seed;
  for (int64_t i = 0; i < iters; ++i) {
    for (int j = 0; j < kChains; ++j) acc[j] = acc[j] * m + a;
  }
  double sum = 0.0;
  for (int j = 0; j < kChains; ++j) sum += acc[j];
  *flops = iters * kChains * 2;
  return sum;
}

template <typename Fn>
void RunOnThreads(int threads, Fn fn) {
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(fn, t);
  for (std::thread& th : pool) th.join();
}

}  // namespace

double StreamGbPerSecond(int threads, int reps) {
  const int64_t bytes = std::max<int64_t>(4 * LastLevelCacheBytes(), 64 << 20);
  const auto n = static_cast<size_t>(bytes / static_cast<int64_t>(sizeof(double)));
  std::unique_ptr<double[]> a(new double[n]);
  std::unique_ptr<double[]> b(new double[n]);
  const auto range = [&](int t) {
    const size_t chunk = (n + static_cast<size_t>(threads) - 1) /
                         static_cast<size_t>(threads);
    const size_t begin = std::min(n, chunk * static_cast<size_t>(t));
    return std::make_pair(begin, std::min(n, begin + chunk));
  };
  // First touch on the thread that later streams the range.
  RunOnThreads(threads, [&](int t) {
    const auto [begin, end] = range(t);
    for (size_t i = begin; i < end; ++i) {
      a[i] = 1.0;
      b[i] = 0.5;
    }
  });
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const double start = NowSeconds();
    RunOnThreads(threads, [&](int t) {
      const auto [begin, end] = range(t);
      const double s = 1e-3 * (r + 1);
      for (size_t i = begin; i < end; ++i) a[i] += s * b[i];
    });
    const double elapsed = NowSeconds() - start;
    best = std::max(best, 3.0 * static_cast<double>(n) * sizeof(double) /
                              elapsed / 1e9);
  }
  volatile double sink = a[n / 2];
  (void)sink;
  return best;
}

double MulAddGflops(int threads, double seconds) {
  bool avx2 = false;
#if defined(__x86_64__)
  __builtin_cpu_init();
  avx2 = __builtin_cpu_supports("avx2");
#endif
  const auto kernel = [avx2](int64_t iters, double seed, int64_t* flops) {
#if defined(__x86_64__)
    if (avx2) return MulAddChainsAvx2(iters, seed, flops);
#endif
    return MulAddChainsScalar(iters, seed, flops);
  };
  // Calibrate the iteration count to about `seconds` on one thread.
  int64_t iters = 1 << 16;
  for (;;) {
    int64_t flops = 0;
    const double start = NowSeconds();
    volatile double sink = kernel(iters, 1.0, &flops);
    (void)sink;
    if (NowSeconds() - start > seconds / 4 || iters > (int64_t{1} << 40)) {
      iters *= 4;
      break;
    }
    iters *= 2;
  }
  std::vector<int64_t> flops(static_cast<size_t>(threads), 0);
  std::vector<double> sinks(static_cast<size_t>(threads), 0.0);
  const double start = NowSeconds();
  RunOnThreads(threads, [&](int t) {
    sinks[static_cast<size_t>(t)] =
        kernel(iters, 1.0 + t, &flops[static_cast<size_t>(t)]);
  });
  const double elapsed = NowSeconds() - start;
  int64_t total = 0;
  for (const int64_t f : flops) total += f;
  volatile double sink = sinks[0];
  (void)sink;
  return static_cast<double>(total) / elapsed / 1e9;
}

}  // namespace perfbench
