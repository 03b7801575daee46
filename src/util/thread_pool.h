#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

namespace mto {

/// A fixed pool of threads executing "parallel regions": `Run(fn)` invokes
/// `fn(lane)` once for every lane in [0, size()) and returns when all
/// invocations finished. Regions are the only synchronization primitive the
/// crawl runtime needs — work is statically sharded by lane, so there is no
/// task queue to contend on.
///
/// The caller runs lane 0 itself; `size() - 1` workers run the rest, so the
/// coordinator never sleeps through a region it could be working on. With
/// `num_threads <= 1` no threads are spawned and `Run` executes inline,
/// which makes the single-threaded configuration a true baseline.
///
/// A region is a fork-join on two words, with no mutex or condition
/// variable on the path: the caller publishes it by bumping `epoch_`, and
/// each worker counts itself out of `remaining_`. Waiting on either word is
/// a bounded spin (`kSpinCap`) followed by a futex park
/// (`std::atomic::wait`). A waiter spins only if its previous wait would
/// have fit inside the cap — the signaller stamps the clock just before it
/// publishes, so the waiter measures the wait without its own wake-up
/// latency — and only when the pool does not oversubscribe the machine
/// (`num_threads <= hardware_concurrency`), where a spinning waiter would
/// steal the core its signaller needs. The cap is one futex park/wake pair:
/// spinning longer than that costs more than parking would. It is a
/// constant, not a knob, because the two rules above already turn spinning
/// off for long waits and for oversubscribed pools.
///
/// The first exception thrown inside a region, on any lane, is captured and
/// rethrown from `Run` on the calling thread after every lane finished.
class ThreadPool {
 public:
  /// Longest a waiter spins before it parks. SpinUntil and SpinParkLock
  /// (util/spin_lock.h) share it.
  static constexpr std::chrono::nanoseconds kSpinCap{20'000};

  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of parallel lanes (>= 1). fn receives indices [0, size()).
  size_t size() const { return num_threads_; }

  /// Executes `fn(i)` for every lane i and waits for completion; lane 0
  /// runs on the calling thread. Not reentrant: must be called from one
  /// coordinating thread at a time, and a call from inside a region throws
  /// std::logic_error.
  void Run(const std::function<void(size_t)>& fn);

  /// Contiguous block partition of [0, n) into `parts` near-equal ranges;
  /// returns [begin, end) of range `part`. Empty ranges are valid.
  static std::pair<size_t, size_t> BlockRange(size_t n, size_t parts,
                                              size_t part);

 private:
  void WorkerLoop(size_t lane);
  // Runs the current job on `lane`, recording an exception in the
  // first-error slot instead of propagating it.
  void RunLane(size_t lane) noexcept;

  const size_t num_threads_;
  const bool spin_;     // false when the pool oversubscribes the cores
  bool caller_spins_;   // the coordinator's adaptive spin decision
  std::atomic<bool> in_region_{false};

  // Written by the coordinator, read by the workers.
  alignas(64) std::atomic<uint64_t> epoch_{0};
  std::atomic<int64_t> published_ns_{0};  // clock stamp of the last publish
  const std::function<void(size_t)>* job_ = nullptr;
  bool stopping_ = false;

  // Written by the workers, read by the coordinator.
  alignas(64) std::atomic<uint32_t> remaining_{0};
  std::atomic<int64_t> done_ns_{0};  // clock stamp of the last count-out
  std::atomic<bool> has_error_{false};
  std::exception_ptr first_error_;

  std::vector<std::thread> workers_;  // declared last: they use the above
};

}  // namespace mto
