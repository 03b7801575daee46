#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "src/util/thread_pool.h"

namespace mto {

/// Steady-clock time in nanoseconds: the spin deadline's clock.
inline int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One iteration's pause in a spin loop: tells the core a spinner is
/// waiting, so a sibling hyperthread gets the pipeline.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// The runtime's one spin rule, shared by ThreadPool's region handoff and
/// SpinParkLock: polls `ready()` until it holds or ThreadPool::kSpinCap
/// elapses, and returns ready(). The clock is read every 32 pauses, not
/// every one. Callers park (std::atomic::wait) when this returns false.
template <typename Ready>
bool SpinUntil(Ready ready) {
  const int64_t deadline = SteadyNowNs() + ThreadPool::kSpinCap.count();
  for (unsigned i = 1;; ++i) {
    if (ready()) return true;
    CpuRelax();
    if (i % 32 == 0 && SteadyNowNs() > deadline) return ready();
  }
}

/// A mutex for short critical sections under contention: one word with
/// three states (free, locked, locked with parked waiters). An uncontended
/// lock or unlock is one atomic RMW. A contended `lock` spins under
/// SpinUntil's rule, then parks on the word with std::atomic::wait; an
/// `unlock` pays the futex wake only when a waiter parked. A std::mutex
/// parks on every contended hand-off, so a section that is held for well
/// under a microsecond but taken by every thread turns into a convoy of
/// kernel sleeps and wake-ups.
///
/// Spinning is off on a single-core machine, where it would only delay
/// the holder. Not recursive, not fair. Satisfies Lockable, so
/// std::lock_guard and std::unique_lock work with it.
class SpinParkLock {
 public:
  SpinParkLock() = default;
  SpinParkLock(const SpinParkLock&) = delete;
  SpinParkLock& operator=(const SpinParkLock&) = delete;

  void lock() {
    uint32_t expected = kFree;
    if (!state_.compare_exchange_strong(expected, kLocked,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
      LockContended();
    }
  }

  bool try_lock() {
    uint32_t expected = kFree;
    return state_.compare_exchange_strong(expected, kLocked,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed);
  }

  void unlock() {
    if (state_.exchange(kFree, std::memory_order_release) == kParked) {
      state_.notify_one();
    }
  }

  /// True iff some waiter gave up spinning and parked (or is about to).
  /// A snapshot, for tests and diagnostics.
  bool HasParkedWaiters() const {
    return state_.load(std::memory_order_relaxed) == kParked;
  }

 private:
  static constexpr uint32_t kFree = 0;
  static constexpr uint32_t kLocked = 1;  // held, nobody parked
  static constexpr uint32_t kParked = 2;  // held, waiters may be parked

  void LockContended() {
    static const bool kSpin = std::thread::hardware_concurrency() > 1;
    if (kSpin && SpinUntil([this] { return try_lock(); })) return;
    // Mark the word parked before sleeping on it. Whoever swaps kFree out
    // owns the lock; it keeps the parked mark, which costs at most one
    // spare wake-up at its unlock.
    while (state_.exchange(kParked, std::memory_order_acquire) != kFree) {
      state_.wait(kParked, std::memory_order_relaxed);
    }
  }

  std::atomic<uint32_t> state_{kFree};
};

}  // namespace mto
