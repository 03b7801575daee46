#include "src/util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace mto {
namespace {

TEST(ThreadPoolTest, RunsEveryLaneExactlyOnce) {
  for (size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    ASSERT_EQ(pool.size(), threads);
    std::vector<std::atomic<int>> hits(threads);
    pool.Run([&](size_t t) { hits[t].fetch_add(1); });
    pool.Run([&](size_t t) { hits[t].fetch_add(1); });
    for (size_t t = 0; t < threads; ++t) EXPECT_EQ(hits[t].load(), 2);
  }
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOneInlineLane) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  int ran = 0;
  pool.Run([&](size_t t) {
    EXPECT_EQ(t, 0u);
    ++ran;
  });
  EXPECT_EQ(ran, 1);
}

TEST(ThreadPoolTest, BlockRangeCoversWithoutOverlap) {
  for (size_t n : {0u, 1u, 7u, 8u, 9u, 100u}) {
    for (size_t parts : {1u, 2u, 3u, 8u}) {
      std::vector<int> covered(n, 0);
      size_t expected_begin = 0;
      for (size_t p = 0; p < parts; ++p) {
        auto [begin, end] = ThreadPool::BlockRange(n, parts, p);
        EXPECT_EQ(begin, expected_begin);
        EXPECT_LE(begin, end);
        for (size_t i = begin; i < end; ++i) ++covered[i];
        expected_begin = end;
      }
      EXPECT_EQ(expected_begin, n);
      EXPECT_EQ(std::accumulate(covered.begin(), covered.end(), 0u), n);
    }
  }
}

TEST(ThreadPoolTest, RethrowsWorkerExceptionOnCaller) {
  ThreadPool pool(4);
  for (size_t thrower : {2u, 0u}) {
    EXPECT_THROW(
        pool.Run([&](size_t t) {
          if (t == thrower) throw std::runtime_error("lane failed");
        }),
        std::runtime_error);
    // The pool survives a throwing region.
    std::atomic<int> ok{0};
    pool.Run([&](size_t) { ok.fetch_add(1); });
    EXPECT_EQ(ok.load(), 4);
  }
}

TEST(ThreadPoolTest, ThrowingLaneZeroWaitsForEveryOtherLane) {
  ThreadPool pool(4);
  for (int rep = 0; rep < 3; ++rep) {
    {
      // The region and everything it writes live in this scope; Run must
      // not return while a lane can still touch them.
      std::vector<int> written(pool.size(), 0);
      EXPECT_THROW(pool.Run([&written](size_t t) {
        if (t == 0) throw std::runtime_error("lane 0 failed");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        written[t] = 1;
      }),
                   std::runtime_error);
      for (size_t t = 1; t < written.size(); ++t) EXPECT_EQ(written[t], 1);
    }
  }
}

TEST(ThreadPoolTest, NestedRunThrowsLogicError) {
  for (size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    for (size_t nester : {0u, 1u}) {
      if (nester >= threads) continue;
      std::atomic<int> inner{0};
      EXPECT_THROW(pool.Run([&](size_t t) {
        if (t == nester) pool.Run([&](size_t) { inner.fetch_add(1); });
      }),
                   std::logic_error);
      EXPECT_EQ(inner.load(), 0);
      // A rejected nested call leaves the pool usable.
      std::atomic<int> ok{0};
      pool.Run([&](size_t) { ok.fetch_add(1); });
      EXPECT_EQ(ok.load(), static_cast<int>(threads));
    }
  }
}

TEST(ThreadPoolTest, LaneZeroRunsOnCallingThread) {
  for (size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    std::vector<std::thread::id> ids(threads);
    pool.Run([&](size_t t) { ids[t] = std::this_thread::get_id(); });
    EXPECT_EQ(ids[0], std::this_thread::get_id());
    for (size_t t = 1; t < threads; ++t) {
      EXPECT_NE(ids[t], std::this_thread::get_id());
      for (size_t u = t + 1; u < threads; ++u) EXPECT_NE(ids[t], ids[u]);
    }
  }
}

TEST(ThreadPoolTest, BackToBackRegionsCountExactly) {
  // Near-empty regions make the handoff itself the whole workload; eight
  // threads oversubscribe small machines and exercise the park path.
  constexpr int kRegions = 100000;
  for (size_t threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    std::vector<int> hits(threads, 0);  // one writer per slot per region
    for (int r = 0; r < kRegions; ++r) {
      pool.Run([&](size_t t) { ++hits[t]; });
    }
    for (size_t t = 0; t < threads; ++t) {
      EXPECT_EQ(hits[t], kRegions) << threads << " threads, lane " << t;
    }
  }
}

TEST(ThreadPoolTest, DestroysPoolWithParkedWorkers) {
  for (size_t threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    std::atomic<int> ran{0};
    pool.Run([&](size_t) { ran.fetch_add(1); });
    // Sleep well past the spin cap so every worker has parked before the
    // destructor's wake-up; a lost wake-up hangs the join.
    std::this_thread::sleep_for(ThreadPool::kSpinCap * 50);
    pool.Run([&](size_t) { ran.fetch_add(1); });
    std::this_thread::sleep_for(ThreadPool::kSpinCap * 50);
    EXPECT_EQ(ran.load(), static_cast<int>(2 * threads));
  }
}

}  // namespace
}  // namespace mto
