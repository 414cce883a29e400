// Concurrency stress suite, designed to run under the TSan tier
// (cmake --preset tsan): ≥8 threads hammer the BufferPool residency ledger
// and the ThreadPool RunBlocks barrier with randomized interleavings, send
// batch-of-one exact queries through one engine whose candidate partition
// shares a pool, plus a burst through the logger's single guarded write
// path. Assertions check
// the invariants that survive any interleaving (conserved counts, byte
// integrity through eviction, non-negative ledgers); ThreadSanitizer checks
// everything else.
#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/common/sync.h"
#include "src/matrix/dense_matrix.h"
#include "src/parallel/thread_pool.h"
#include "src/serve/query_engine.h"
#include "src/store/buffer_pool.h"

namespace pane {
namespace {

constexpr int kStressThreads = 8;

/// MAP_SHARED file mapping, the backing FactorSlab spill files use.
class SharedMapping {
 public:
  explicit SharedMapping(int64_t bytes) : bytes_(bytes) {
    char tmpl[] = "/tmp/pane_stress_test.XXXXXX";
    fd_ = mkstemp(tmpl);
    EXPECT_GE(fd_, 0);
    path_ = tmpl;
    EXPECT_EQ(ftruncate(fd_, bytes), 0);
    base_ = static_cast<char*>(mmap(nullptr, static_cast<size_t>(bytes),
                                    PROT_READ | PROT_WRITE, MAP_SHARED, fd_,
                                    0));
    EXPECT_NE(base_, MAP_FAILED);
  }

  ~SharedMapping() {
    munmap(base_, static_cast<size_t>(bytes_));
    close(fd_);
    unlink(path_.c_str());
  }

  char* base() const { return base_; }
  int64_t bytes() const { return bytes_; }

 private:
  int fd_ = -1;
  std::string path_;
  char* base_ = nullptr;
  int64_t bytes_ = 0;
};

// ---------------------------------------------------------------------------
// BufferPool: random pin/unpin/evict traffic from 8 threads over one region
// under a budget tight enough that the clock hand is always moving. Each
// thread also writes a recognizable pattern into its own disjoint slice
// while pinned; since eviction is MADV_DONTNEED over MAP_SHARED, the bytes
// must survive any eviction schedule — that is the pool's core contract.
TEST(ConcurrencyStressTest, BufferPoolPinEvictHammer) {
  constexpr int64_t kPageBytes = 4096;
  constexpr int64_t kRegionBytes = 256 * kPageBytes;  // 1 MiB
  constexpr int kItersPerThread = 400;

  SharedMapping mapping(kRegionBytes);
  store::BufferPool::Options options;
  options.budget_bytes = 32 * kPageBytes;  // 1/8 of the region: evict a lot
  options.page_bytes = kPageBytes;
  store::BufferPool pool(options);
  const auto region = pool.Register(mapping.base(), kRegionBytes);
  ASSERT_TRUE(region.ok()) << region.status();

  const int64_t slice = kRegionBytes / kStressThreads;
  std::atomic<int64_t> ops{0};
  std::vector<std::thread> threads;
  threads.reserve(kStressThreads);
  for (int t = 0; t < kStressThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(0x5eed + static_cast<uint64_t>(t));
      const int64_t my_begin = t * slice;
      for (int i = 0; i < kItersPerThread; ++i) {
        // Dirty a random page of this thread's slice under a pin.
        const int64_t my_page =
            my_begin + static_cast<int64_t>(rng() % (slice / kPageBytes)) *
                           kPageBytes;
        ASSERT_TRUE(pool.Pin(*region, my_page, my_page + kPageBytes).ok());
        std::memset(mapping.base() + my_page, 'A' + t,
                    static_cast<size_t>(kPageBytes));
        ASSERT_TRUE(
            pool.Unpin(*region, my_page, my_page + kPageBytes, /*dirty=*/true)
                .ok());

        // Shake the ledger with random foreign traffic: pins, floored
        // unpins, region-wide evictions, stats snapshots.
        const int64_t any_begin =
            static_cast<int64_t>(rng() % (kRegionBytes / kPageBytes)) *
            kPageBytes;
        const int64_t any_end = std::min<int64_t>(
            kRegionBytes,
            any_begin + static_cast<int64_t>(1 + rng() % 7) * kPageBytes);
        switch (rng() % 4) {
          case 0:
            ASSERT_TRUE(pool.Pin(*region, any_begin, any_end).ok());
            ASSERT_TRUE(pool.Unpin(*region, any_begin, any_end, false).ok());
            break;
          case 1:
            // Release rows never acquired: valid no-op pin-wise.
            ASSERT_TRUE(pool.Unpin(*region, any_begin, any_end, false).ok());
            break;
          case 2:
            ASSERT_TRUE(pool.EvictRegion(*region).ok());
            break;
          default: {
            const auto stats = pool.stats();
            ASSERT_GE(stats.resident_bytes, 0);
            ASSERT_LE(stats.resident_bytes, stats.registered_bytes);
            break;
          }
        }
        ops.fetch_add(1, std::memory_order_relaxed);
        if (rng() % 8 == 0) std::this_thread::yield();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ops.load(), kStressThreads * kItersPerThread);

  // Bytes survived every eviction schedule: each slice's last-written pages
  // hold their writer's fill byte (pages never dirtied stay zero from
  // ftruncate).
  for (int t = 0; t < kStressThreads; ++t) {
    const char* p = mapping.base() + t * slice;
    for (int64_t off = 0; off < slice; ++off) {
      const char c = p[off];
      ASSERT_TRUE(c == 0 || c == 'A' + t)
          << "slice " << t << " byte " << off << " corrupted: " << int(c);
    }
  }

  const auto stats = pool.stats();
  EXPECT_GT(stats.evicted_pages, 0) << "budget never forced the clock hand";
  EXPECT_GT(stats.writeback_pages, 0);
  pool.Unregister(*region);
  EXPECT_EQ(pool.stats().registered_bytes, 0);
}

// ---------------------------------------------------------------------------
// ThreadPool: concurrent RunBlocks barriers from several caller threads on
// one shared pool. Each caller owns a disjoint result vector (the claim
// counter is per-call), so any cross-talk between barriers is a bug TSan or
// the sums will catch.
TEST(ConcurrencyStressTest, ConcurrentRunBlocksBarriers) {
  ThreadPool pool(kStressThreads);
  constexpr int kCallers = 4;
  constexpr int kRounds = 50;
  constexpr int kBlocks = 64;

  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  std::atomic<int64_t> grand_total{0};
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<int64_t> slots(kBlocks, 0);
        pool.RunBlocks(kBlocks, [&](int b) {
          // Vary block timing so completion order differs per round; the
          // blocks run on several workers at once, so derive the jitter
          // from (c, round, b) instead of sharing an RNG across them.
          if ((b * 31 + round * 7 + c) % 4 == 0) std::this_thread::yield();
          slots[static_cast<size_t>(b)] += b + 1;
        });
        int64_t sum = 0;
        for (const int64_t v : slots) sum += v;
        // The barrier published every block exactly once.
        ASSERT_EQ(sum, static_cast<int64_t>(kBlocks) * (kBlocks + 1) / 2);
        grand_total.fetch_add(sum, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(grand_total.load(),
            static_cast<int64_t>(kCallers) * kRounds * kBlocks *
                (kBlocks + 1) / 2);
}

// ParallelFor built on the same barrier: every element of the range is
// visited exactly once even when ranges land on different workers.
TEST(ConcurrencyStressTest, ParallelForPartitionsExactlyOnce) {
  ThreadPool pool(kStressThreads);
  constexpr int64_t kN = 1 << 16;
  std::vector<std::atomic<uint8_t>> touched(kN);
  for (auto& t : touched) t.store(0);
  ParallelFor(&pool, 0, kN, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      ASSERT_EQ(touched[static_cast<size_t>(i)].fetch_add(1), 0)
          << "element visited twice";
    }
  });
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(touched[static_cast<size_t>(i)].load(), 1);
  }
}

// Submit/future traffic racing pool destruction-time shutdown: futures all
// resolve, and the queue drains before workers exit.
TEST(ConcurrencyStressTest, SubmitDrainsOnShutdown) {
  std::atomic<int64_t> executed{0};
  constexpr int kTasks = 2000;
  {
    ThreadPool pool(kStressThreads);
    std::vector<std::future<void>> futures;
    futures.reserve(kTasks);
    for (int i = 0; i < kTasks; ++i) {
      futures.push_back(pool.Submit([&executed] {
        executed.fetch_add(1, std::memory_order_relaxed);
      }));
    }
    for (auto& f : futures) f.get();
  }
  EXPECT_EQ(executed.load(), kTasks);
}

// ---------------------------------------------------------------------------
// QueryEngine: 8 client threads issue batch-of-one exact attribute and link
// queries against one engine over one shared 4-worker pool, so every call
// takes the candidate partition and several RunBlocks barriers interleave
// on the pool. Every answer must equal the serial engine's, bit for bit.
TEST(ConcurrencyStressTest, SharedPoolBatchOfOneExactQueries) {
  constexpr int64_t kNodes = 600;
  constexpr int64_t kAttributes = 150;
  constexpr int64_t kDim = 12;
  constexpr int kQueriesPerThread = 24;
  Rng rng(0xe9);
  DenseMatrix xf(kNodes, kDim), xb(kNodes, kDim), y(kAttributes, kDim);
  xf.FillGaussian(&rng);
  xb.FillGaussian(&rng);
  y.FillGaussian(&rng);
  auto serial = serve::QueryEngine::Create(xf.View(), xb.View(), y.View(),
                                           ConstMatrixView(), {});
  ASSERT_TRUE(serial.ok()) << serial.status();
  ThreadPool pool(4);
  serve::QueryEngineOptions options;
  options.pool = &pool;
  auto shared = serve::QueryEngine::Create(xf.View(), xb.View(), y.View(),
                                           ConstMatrixView(), options);
  ASSERT_TRUE(shared.ok()) << shared.status();

  std::atomic<int64_t> checked{0};
  std::vector<std::thread> clients;
  clients.reserve(kStressThreads);
  for (int t = 0; t < kStressThreads; ++t) {
    clients.emplace_back([&, t] {
      std::mt19937_64 pick(0xc0ffee + static_cast<uint64_t>(t));
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const serve::TopKQuery query{static_cast<int64_t>(pick() % kNodes),
                                     static_cast<int64_t>(1 + pick() % 40)};
        const bool attr = (i + t) % 2 == 0;
        const auto got = attr ? shared->TopKAttributes({query})
                              : shared->TopKTargets({query});
        const auto want = attr ? serial->TopKAttributes({query})
                               : serial->TopKTargets({query});
        ASSERT_EQ(got, want) << (attr ? "attr" : "link") << " node "
                             << query.node << " k " << query.k;
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(checked.load(), kStressThreads * kQueriesPerThread);
}

// ---------------------------------------------------------------------------
// Logging: concurrent writers through the single guarded write path. The
// lock is exercised only when records actually emit, so log at a level
// above the threshold; TSan asserts the path is race-free.
TEST(ConcurrencyStressTest, LoggerSingleWritePath) {
  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kError);  // keep test output quiet: WARN discarded
  std::vector<std::thread> threads;
  threads.reserve(kStressThreads);
  for (int t = 0; t < kStressThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 50; ++i) {
        // Discarded before the sink (below threshold) — still exercises the
        // level load — plus one emitted record per thread through the lock.
        PANE_LOG(WARNING) << "discarded " << t << ":" << i;
      }
      PANE_LOG(ERROR) << "stress thread " << t << " done";
    });
  }
  for (auto& t : threads) t.join();
  SetLogLevel(saved);
}

}  // namespace
}  // namespace pane
