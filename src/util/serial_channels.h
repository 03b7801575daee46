#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace mto {

/// A fixed set of single-worker FIFO lanes ("channels"), one per backend
/// connection in the lane fetch engine behind async and pipelined fetches
/// (DESIGN.md §9, §10).
///
/// Each channel runs its tasks strictly in post order on its own dedicated
/// worker, so tasks posted to the *same* channel serialize (one backend
/// serves one round trip at a time — the bandwidth model) while tasks on
/// *different* channels overlap freely. Posting is fire-and-forget, and
/// progress is observed through markers — `Mark()` snapshots the
/// per-channel posted counts, and `WaitUntil(marker)` blocks until every
/// channel has completed at least that much. This is exactly what a lag-k
/// pipeline needs: the poster keeps going and only ever waits on a
/// *bounded-age* marker. A poster that must wait for its own tasks only
/// (the async engine) has them signal their own completion.
///
/// `Post` is safe from any thread, including threads inside a ThreadPool
/// region. The first exception a task throws is captured and rethrown from
/// the next `WaitUntil`/`Drain` (remaining tasks still run).
class SerialChannels {
 public:
  /// Spawns one worker per channel (`num_channels` >= 1).
  explicit SerialChannels(size_t num_channels);

  /// Drains every channel, then joins the workers. Captured task errors are
  /// swallowed here (call Drain() first to observe them).
  ~SerialChannels();

  SerialChannels(const SerialChannels&) = delete;
  SerialChannels& operator=(const SerialChannels&) = delete;

  size_t size() const { return channels_.size(); }

  /// Enqueues `task` on `channel` (< size()). Tasks on one channel run in
  /// post order; never blocks on task execution.
  void Post(size_t channel, std::function<void()> task);

  /// A snapshot of how much work had been posted per channel at some
  /// instant. Obtained from Mark(); consumed by WaitUntil().
  struct Marker {
    std::vector<uint64_t> posted;
  };

  /// Marks the current posted counts (everything posted so far, on every
  /// channel). Safe from the posting thread between posts.
  Marker Mark() const;

  /// Blocks until every channel has *completed* at least `marker.posted`
  /// tasks, then rethrows the first captured task error, if any.
  void WaitUntil(const Marker& marker);

  /// Blocks until all posted work on every channel completed, then
  /// rethrows the first captured task error, if any.
  void Drain();

  /// Attaches passive telemetry: a per-lane occupancy gauge
  /// (pipeline.lane_depth{lane=N}, posted minus completed), a per-lane
  /// high-watermark gauge (pipeline.lane_depth_peak{lane=N} — the
  /// starvation signal: a lane whose depth sits pinned at its peak across
  /// consecutive snapshots is backed up behind a stalled or slow backend,
  /// see obs::ProgressWatchdog), and join-wait spans ("lane.wait_until" /
  /// "lane.drain") on the trace. Null pointers detach. Call while no tasks
  /// are posted (between rounds).
  void SetObservability(obs::MetricsRegistry* registry, obs::TraceLog* trace);

 private:
  struct Channel {
    mutable std::mutex mutex;
    std::condition_variable work_cv;  ///< wakes the worker
    std::condition_variable done_cv;  ///< wakes waiters on completed count
    std::deque<std::function<void()>> queue;
    uint64_t posted = 0;
    uint64_t completed = 0;
    uint64_t peak_depth = 0;  ///< high-watermark of posted - completed
    bool shutting_down = false;
    obs::Gauge* depth = nullptr;  ///< posted - completed; null when obs off
    obs::Gauge* peak = nullptr;   ///< peak_depth mirror; null when obs off
    std::thread worker;
  };

  void WorkerLoop(Channel& channel);
  void RethrowFirstError();

  std::vector<std::unique_ptr<Channel>> channels_;
  std::mutex error_mutex_;
  std::exception_ptr first_error_;
  obs::TraceLog* trace_ = nullptr;
};

}  // namespace mto
