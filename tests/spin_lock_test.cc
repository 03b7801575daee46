#include "src/util/spin_lock.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace mto {
namespace {

TEST(SpinParkLockTest, CountsExactlyUnderOversubscription) {
  // Four threads per core: holders get descheduled mid-section, so waiters
  // run out their spin and park as well as catch the lock spinning.
  const size_t num_threads =
      4 * std::max(1u, std::thread::hardware_concurrency());
  constexpr uint64_t kIncrements = 5000;
  SpinParkLock lock;
  uint64_t counter = 0;  // plain: the lock is its only guard
  std::vector<std::thread> threads;
  for (size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&] {
      for (uint64_t i = 0; i < kIncrements; ++i) {
        std::lock_guard guard(lock);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, num_threads * kIncrements);
  EXPECT_FALSE(lock.HasParkedWaiters());
}

TEST(SpinParkLockTest, WaiterParksThenWakesWhileHolderSleeps) {
  SpinParkLock lock;
  lock.lock();
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    lock.lock();
    acquired.store(true);
    lock.unlock();
  });
  // The holder sleeps 1 ms, far past the spin cap: by then the waiter has
  // given up spinning and parked. A slow thread start gets more sleeps.
  static_assert(std::chrono::milliseconds(1) > ThreadPool::kSpinCap);
  for (int i = 0; i < 5000 && !lock.HasParkedWaiters(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(lock.HasParkedWaiters());
  EXPECT_FALSE(acquired.load());
  lock.unlock();  // must wake the parked waiter
  waiter.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(SpinParkLockTest, TryLockFailsWhileHeld) {
  SpinParkLock lock;
  ASSERT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

}  // namespace
}  // namespace mto
