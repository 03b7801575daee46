#include "src/util/thread_pool.h"

#include <stdexcept>

#include "src/util/spin_lock.h"

namespace mto {
namespace {

// Whether a wait that began at `start_ns` and was signalled at
// `signalled_ns` would have fit inside the spin cap.
bool FitsSpinCap(int64_t start_ns, int64_t signalled_ns) {
  return signalled_ns - start_ns <= ThreadPool::kSpinCap.count();
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads)
    : num_threads_(num_threads == 0 ? 1 : num_threads),
      spin_(num_threads_ <= std::thread::hardware_concurrency()),
      caller_spins_(spin_) {
  workers_.reserve(num_threads_ - 1);
  for (size_t lane = 1; lane < num_threads_; ++lane) {
    workers_.emplace_back([this, lane] { WorkerLoop(lane); });
  }
}

ThreadPool::~ThreadPool() {
  if (workers_.empty()) return;
  stopping_ = true;
  // The publishing RMW is seq_cst: std::atomic::notify skips the wake-up
  // when it sees no registered waiter, and that check must not be
  // reordered before the bump a parking waiter re-reads.
  epoch_.fetch_add(1);
  epoch_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Run(const std::function<void(size_t)>& fn) {
  if (in_region_.exchange(true, std::memory_order_acquire)) {
    throw std::logic_error("ThreadPool::Run called from inside a region");
  }
  struct RegionExit {
    std::atomic<bool>& in_region;
    ~RegionExit() { in_region.store(false, std::memory_order_release); }
  } region_exit{in_region_};
  if (workers_.empty()) {
    fn(0);
    return;
  }
  job_ = &fn;
  remaining_.store(static_cast<uint32_t>(workers_.size()),
                   std::memory_order_relaxed);
  published_ns_.store(SteadyNowNs(), std::memory_order_relaxed);
  epoch_.fetch_add(1);  // seq_cst: see ~ThreadPool
  epoch_.notify_all();

  RunLane(0);

  // `fn` lives on the caller's stack: wait for every lane, even when lane 0
  // threw, before returning or rethrowing.
  const int64_t start = SteadyNowNs();
  const auto done = [this] {
    return remaining_.load(std::memory_order_acquire) == 0;
  };
  if (!(caller_spins_ && SpinUntil(done))) {
    for (uint32_t r; (r = remaining_.load(std::memory_order_acquire)) != 0;) {
      remaining_.wait(r, std::memory_order_acquire);
    }
  }
  caller_spins_ =
      spin_ && FitsSpinCap(start, done_ns_.load(std::memory_order_relaxed));
  job_ = nullptr;
  if (has_error_.load(std::memory_order_relaxed)) {
    std::exception_ptr error = std::move(first_error_);
    first_error_ = nullptr;
    has_error_.store(false, std::memory_order_relaxed);
    std::rethrow_exception(error);
  }
}

void ThreadPool::RunLane(size_t lane) noexcept {
  try {
    (*job_)(lane);
  } catch (...) {
    if (!has_error_.exchange(true, std::memory_order_relaxed)) {
      first_error_ = std::current_exception();
    }
  }
}

void ThreadPool::WorkerLoop(size_t lane) {
  uint64_t seen = 0;
  bool spins = spin_;
  while (true) {
    const int64_t start = SteadyNowNs();
    const auto published = [&] {
      return epoch_.load(std::memory_order_acquire) != seen;
    };
    if (!(spins && SpinUntil(published))) {
      epoch_.wait(seen, std::memory_order_acquire);
    }
    seen = epoch_.load(std::memory_order_acquire);
    if (stopping_) return;
    spins = spin_ && FitsSpinCap(
                         start, published_ns_.load(std::memory_order_relaxed));
    RunLane(lane);
    done_ns_.store(SteadyNowNs(), std::memory_order_relaxed);
    if (remaining_.fetch_sub(1) == 1) {  // seq_cst: see ~ThreadPool
      remaining_.notify_one();
    }
  }
}

std::pair<size_t, size_t> ThreadPool::BlockRange(size_t n, size_t parts,
                                                 size_t part) {
  const size_t base = n / parts;
  const size_t extra = n % parts;
  const size_t begin = part * base + (part < extra ? part : extra);
  const size_t len = base + (part < extra ? 1 : 0);
  return {begin, begin + len};
}

}  // namespace mto
