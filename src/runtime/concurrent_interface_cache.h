#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/net/restricted_interface.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/serial_channels.h"
#include "src/util/spin_lock.h"

namespace mto {

/// Thread-safe crawl session: wraps a (single-threaded) RestrictedInterface
/// so any number of walkers can share one cache and one query budget.
///
/// Design (see DESIGN.md §6):
///  * **Lock-free hit path.** A per-node atomic flag mirrors the wrapped
///    session's cache. Since the underlying network is immutable, a cached
///    flag lets the result be materialized without any lock — the common
///    case once walkers have warmed a region ("a region one walker has paid
///    for is free for the others", paper Section VI).
///  * **Claims on the flag.** The flag has three states: uncached, in
///    flight, cached. A miss claims its node with one CAS from uncached to
///    in flight; a second walker racing to the same node waits on the flag
///    (std::atomic::wait) instead of issuing a duplicate backend query, so
///    two walkers hitting the same uncached node consume exactly one unit
///    of query cost. The owner stores cached, or uncached when the fetch
///    was refused (the next waiter then claims it in turn), and wakes the
///    waiters. No table, no lock and no allocation.
///  * **Serialized ledger.** The wrapped RestrictedInterface remains the
///    source of truth for cost, budget, and latency bookkeeping; it is only
///    touched under one spin-then-park lock (util/SpinParkLock), and only
///    for the ledger work: responses are materialized and simulated latency
///    is paid *outside* it, so concurrent misses to different nodes overlap
///    their round trips — the effect the throughput bench measures.
///  * **Async fetch overlap (`SetFetchMode(kAsync)`).** When the wrapped
///    session supports two-phase fetches (a service/BackendPool), a miss
///    group is only *planned* under the ledger lock — routing, budget,
///    outcomes, cost — and each backend's ledger/latency task is posted, in
///    plan order, to that backend's FIFO lane (util/SerialChannels, lane
///    `b % lanes`), which then sleeps the backend's round trips. The caller
///    blocks until the lanes ran its tasks (a lag-0 marker join), so
///    ledgers are current when QueryRef/FetchBatch return. Round trips
///    served by different lanes overlap in real time; a single miss pays
///    its wire time on the calling walker's thread, overlapping other
///    walkers' misses as the sync path does. Results stay bit-identical to
///    kSync because sync and async share the plan (see DESIGN.md §9).
///  * **Pipelined rounds (`SetPipelineDepth(k)`, k >= 1).** The async path
///    still joins every frontier before the round continues, so round R+1
///    waits on round R's slowest backend. The pipelined engine drops that
///    join: `PipelinedFetch` plans the frontier exactly like sync/async
///    (same coordinator thread, same order, identical state mutations) and
///    posts the same per-backend tasks onto the same lanes, but returns
///    immediately — commits read the planned outcomes from the cache while
///    the round trips are still "in flight" as wall time on the lanes. A
///    lag-k join bounds run-ahead: before round R's tasks are posted, round
///    R-k must have drained. `PostPrefetchHints` turns sampler peeks into
///    wall-clock-only prefetch *tickets* — a ticket occupies its predicted
///    backend's lane for one RTT and lets the real fetch's apply task
///    discount one prepaid trip; a wrong or stale prediction is cancelled.
///    Tickets never touch ledger, cache, or cost state, so
///    samples/trace/estimate/ledgers stay bitwise equal to sync mode by
///    construction (DESIGN.md §10).
///
/// The wrapper takes over latency simulation from the wrapped session (the
/// session's own latency is zeroed at construction) so a round trip is
/// never paid twice.
///
/// `Reset()` and `SetFetchMode()` are *not* thread-safe: call them only
/// while no walker is running.
class ConcurrentInterfaceCache final : public RestrictedInterface {
 public:
  /// Wraps `base`, which must outlive this object. Cache state already in
  /// `base` is honored (its flags are imported).
  explicit ConcurrentInterfaceCache(RestrictedInterface& base);

  /// Selects the miss-fetch execution mode. kAsync runs miss fetches on
  /// `lanes` per-backend FIFO lanes (0 falls back to kMaxFetchThreads; the
  /// cache cannot see the backend fleet, so callers that can — CrawlService
  /// sizes one lane per backend — should pass the real count; backend b
  /// rides lane `b % lanes`). kAsync silently behaves like kSync when the
  /// wrapped session has no async-capable backend model. Call between
  /// rounds only.
  void SetFetchMode(FetchMode mode, size_t lanes = 0);
  FetchMode fetch_mode() const { return fetch_mode_; }

  /// Upper bound on lanes (backend channels worth of overlap; more would
  /// only contend on the ledger locks).
  static constexpr size_t kMaxFetchThreads = 16;

  /// Enables (depth >= 1) or disables (depth == 0) the pipelined engine:
  /// `depth` rounds of deferred per-backend work may be in flight behind
  /// the crawl (the lag-k join), and samplers are asked for up to `depth`
  /// prefetch candidates per walker. `lanes` sizes the lane set exactly as
  /// in SetFetchMode (async and pipelined share one lane set). Drains any
  /// active pipeline first. Call between rounds only.
  void SetPipelineDepth(size_t depth, size_t lanes = 0);
  size_t pipeline_depth() const { return pipeline_depth_; }

  /// True iff PipelinedFetch/PostPrefetchHints are live.
  bool PipelineActive() const {
    return pipeline_depth_ > 0 && channels_ != nullptr;
  }

  /// Pipelined replacement for the coordinator's frontier FetchBatch
  /// (CrawlScheduler only): plans the whole frontier under the ledger lock
  /// — consuming matching prefetch tickets — marks planned-fetched nodes
  /// cached, posts each backend's ledger/latency task to its lane, and
  /// returns without joining. Requires PipelineActive(); must be called
  /// from a single coordinator thread with no concurrent query-path calls
  /// (CrawlScheduler calls it between pool regions, while no walker runs).
  /// Falls back to sync-identical inline behavior when the wrapped session
  /// cannot plan.
  void PipelinedFetch(std::span<const NodeId> frontier);

  /// Publishes the next round's predicted targets as prefetch tickets:
  /// routes each valid, uncached, deduplicated prediction via the wrapped
  /// session's PlanPrefetch and posts a one-RTT wall-clock ticket on the
  /// predicted backend's lane. First cancels every ticket left from the
  /// previous prediction window (the deterministic stale-invalidation
  /// point). Tickets mutate no session state whatsoever. Coordinator-only,
  /// like PipelinedFetch; a no-op when the session cannot preview routes.
  void PostPrefetchHints(std::span<const NodeId> predicted);

  /// Cancels all outstanding tickets and drains every lane; after this
  /// the ledgers are quiescent (checkpoint/stat-read safe). Coordinator
  /// only. No-op when no lanes exist.
  void DrainPipeline();

  /// Allocation-free read path: cache hits return a borrowed view without
  /// taking any lock; misses (and unknown ids, which throw
  /// std::invalid_argument) go through Admit. Inline so the hit — a bounds
  /// check, one acquire load, a single-writer request-slot bump and the
  /// view — compiles into the caller.
  std::optional<QueryView> QueryRef(NodeId v) override {
    if (v < num_flags_ && HitCached(v)) [[likely]] {
      total_requests_.Add();
      return MakeView(v);
    }
    return QueryRefMiss(v);
  }
  /// Thread-safe bulk fetch: claims every distinct uncached id without
  /// blocking, fetches the claims in one group (sync, or through the lanes
  /// when async), then admits ids another walker had in flight. Counts
  /// every id as one request and returns, per id, 1 iff it is cached
  /// afterwards.
  std::vector<uint8_t> FetchBatch(std::span<const NodeId> ids) override;
  bool IsCached(NodeId v) const override;

  uint64_t QueryCost() const override;
  /// Sums the per-thread request shards: exact at quiescent points (between
  /// rounds), approximate while walkers run.
  uint64_t TotalRequests() const override { return total_requests_.Value(); }
  uint64_t BackendRequests() const override;
  void SetBudget(std::optional<uint64_t> budget) override;

  /// Bulk-chunking is performed by the wrapped session; forward to it.
  void SetMaxBatchSize(size_t max_batch_size) override;
  size_t max_batch_size() const override;

  /// Session checkpointing (src/service): snapshots read the wrapped
  /// ledger's state but report this wrapper's total-request counter (the
  /// wrapped session never sees cache hits). RestoreSession forwards to the
  /// wrapped session and re-imports its cache flags. Neither is safe while
  /// walkers are running; call them only between scheduler rounds.
  SessionSnapshot SnapshotSession() const override;
  void RestoreSession(const SessionSnapshot& snapshot) override;

  /// Clears this cache and the wrapped session. Not thread-safe.
  void Reset() override;

  /// Attaches (or detaches, with nulls) passive telemetry. Resolves metric
  /// pointers once so the hot paths pay a null check + one relaxed
  /// increment; never draws randomness, queries, or mutates session state.
  /// Forwarded to the lane set (existing and future). Call between rounds
  /// only, like the other mode switches.
  ///
  /// Metric catalog (docs/observability.md): cache.hits (gauge, derived at
  /// PublishMetrics time), cache.misses (fetch claims, refusals included;
  /// hits + misses == TotalRequests), cache.dedupe_waits,
  /// cache.miss_batch_size (histogram),
  /// prefetch.issued / consumed / mispredicted / stale_cancelled.
  void SetObservability(obs::MetricsRegistry* registry, obs::TraceLog* trace);

  /// Publishes the derived cache.hits gauge: TotalRequests() minus the
  /// miss counter. Hits are *not* counted on the hot path — the lock-free
  /// hit path already bumps the caller's request shard, so the split is
  /// pure arithmetic at pull time (exact at quiescent points, like
  /// BackendPool::PublishMetrics). No-op when observability is off.
  void PublishMetrics();

 private:
  /// cached_flags_ states. Only a claim's CAS enters kInFlight and only
  /// its owner's ResolveFetch leaves it; kCached is final until
  /// Reset/RestoreSession.
  static constexpr uint8_t kUncached = 0;
  static constexpr uint8_t kCached = 1;
  static constexpr uint8_t kInFlight = 2;

  /// Out-of-line rest of QueryRef: the unknown-id throw and the miss path.
  std::optional<QueryView> QueryRefMiss(NodeId v);

  /// The single-id fetch core of QueryRef's miss path and FetchBatch's
  /// busy ids: claims `v` (waiting out another walker's fetch of it),
  /// fetches it through the wrapped session's QueryRef under the ledger
  /// lock, pays the round trip outside it and resolves the claim. Returns
  /// true iff `v` is cached afterwards. The caller counts the request.
  bool Admit(NodeId v);

  /// Claims the fetch of `v`, waiting on its flag while another walker's
  /// fetch is in flight. Returns false when `v` turned out cached (no
  /// fetch needed).
  bool ClaimFetch(NodeId v);

  /// Stores a claimed fetch's outcome in the flag and wakes its waiters.
  void ResolveFetch(NodeId v, bool fetched);

  /// (Re)builds the lane set for the current mode: lanes exist iff the
  /// fetch mode is kAsync or the pipeline is enabled. Drains first.
  void ConfigureLanes(size_t lanes);

  /// A wall-clock-only prefetch reservation: its lane task sleeps one
  /// RTT (or until cancelled) on the predicted backend's lane. Carries no
  /// ledger, cache, or cost effect — that is the whole determinism
  /// argument. Guarded by its own mutex; the tickets_ map by base_mutex_.
  struct PrefetchTicket {
    std::mutex mutex;
    std::condition_variable cv;
    bool cancelled = false;
    uint32_t backend = 0;  ///< predicted first-request backend
  };

  static void CancelTicket(PrefetchTicket& ticket);

  /// The one lane fetch behind the async and pipelined engines: plans
  /// `misses` (valid, distinct, uncached, claimed or coordinator-owned)
  /// under the ledger lock, consumes matching prefetch tickets, and posts
  /// each backend's apply task to its lane in plan order. `inline_wire`:
  /// the caller pays the wire time on its own thread (concurrent walkers'
  /// misses overlap, and a pipelined demand miss never queues behind the
  /// lanes' speculative backlog) and the lane runs only the ledger math.
  /// `join`: block until the lanes ran everything posted up to and
  /// including these tasks (a lag-0 marker join that rethrows a task
  /// error), so ledgers are current on return. Returns the per-miss
  /// fetched flags, or std::nullopt when the wrapped session cannot plan
  /// (callers fall back to the sync path).
  std::optional<std::vector<uint8_t>> LaneFetch(std::span<const NodeId> misses,
                                                bool inline_wire, bool join);

  /// The sync miss path: fetches `misses` through the wrapped session's
  /// FetchBatch under the ledger lock, then pays their round trips outside
  /// it. Returns the per-miss fetched flags.
  std::vector<uint8_t> SyncFetch(std::span<const NodeId> misses);

  /// Cache-hit predicate for the query paths: one acquire load. The
  /// network is immutable, so a cached flag is all a hit needs.
  bool HitCached(NodeId v) const {
    return cached_flags_[v].load(std::memory_order_acquire) == kCached;
  }

  /// Resolved metric pointers; all null when observability is off.
  /// `hits` is a gauge, not a counter: the lock-free hit path is the
  /// hottest line in the crawl, so hits are derived at publish time from
  /// the sharded request count instead of being counted.
  struct CacheMetrics {
    obs::Gauge* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* dedupe_waits = nullptr;
    obs::Histogram* miss_batch = nullptr;
    obs::Counter* prefetch_issued = nullptr;
    obs::Counter* prefetch_consumed = nullptr;
    obs::Counter* prefetch_mispredicted = nullptr;
    obs::Counter* prefetch_stale = nullptr;
  };

  RestrictedInterface* base_;
  // num_users(), fixed at construction: the hit path's bounds check reads
  // it without a trip through the network.
  NodeId num_flags_;
  std::unique_ptr<std::atomic<uint8_t>[]> cached_flags_;
  // Every request, hit or miss, counted on the caller's leased
  // single-writer slot so walkers hitting the cache from different cores
  // never share a line or lock one (DESIGN.md §6). Session state, not a
  // registry metric: always on.
  obs::Counter total_requests_;
  CacheMetrics metrics_;
  obs::MetricsRegistry* registry_ = nullptr;
  obs::TraceLog* trace_ = nullptr;
  FetchMode fetch_mode_ = FetchMode::kSync;
  // Serializes every touch of *base_. Every thread's miss writes it, so it
  // gets its own cache line.
  alignas(64) mutable SpinParkLock base_mutex_;
  // Walkers parked on some in-flight flag. ResolveFetch pays the wake-up
  // only when this is non-zero; it is written only by dedupe waits.
  alignas(64) std::atomic<uint32_t> claim_waiters_{0};

  // Lane engine state. channels_/pipeline_depth_ change only between
  // rounds (SetFetchMode/SetPipelineDepth); tickets_ and round_marks_ are
  // touched under base_mutex_ / by the coordinator respectively.
  size_t pipeline_depth_ = 0;
  std::unique_ptr<SerialChannels> channels_;
  std::unordered_map<NodeId, std::shared_ptr<PrefetchTicket>> tickets_;
  std::deque<SerialChannels::Marker> round_marks_;
};

}  // namespace mto
