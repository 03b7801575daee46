#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "src/net/social_network.h"

namespace mto {

/// How a concurrent wrapper executes cache-missing fetches (see
/// runtime/ConcurrentInterfaceCache and DESIGN.md §9):
///  * kSync — every miss group runs to completion on the calling thread,
///    under the wrapper's ledger lock (the pre-async execution model).
///  * kAsync — miss groups are planned synchronously (routing, budget,
///    cache, cost — the deterministic part) and their per-backend ledger
///    and latency work runs on per-backend FIFO lanes, joined before the
///    call returns, so misses served by different backends overlap in real
///    time. Results are bit-identical to kSync by construction (the plan is
///    shared; see PlanFetchMisses).
enum class FetchMode { kSync, kAsync };

const char* FetchModeName(FetchMode mode);

/// A planned-but-not-applied fetch of a miss group, produced by
/// `PlanFetchMisses`. The plan itself already ran on the calling thread:
/// per-node outcomes are decided, successful nodes are cached, and every
/// cost counter the routing logic reads is updated. What remains is the
/// deferred work in `apply_tasks`: per-backend ledger bookkeeping, one task
/// per backend touched. Tasks are independent of each other and touch
/// disjoint ledgers; run them on any threads and the fetch is complete once
/// all of them returned. The real-time latency of the round trips is the
/// runner's to pay (see runtime/ConcurrentInterfaceCache's lanes).
struct DeferredFetch {
  std::vector<std::function<void()>> apply_tasks;
  /// Parallel to `apply_tasks`: the backend each task's ledger belongs to,
  /// and how many real round trips (non-refusal ops) it applies. The lane
  /// engine uses these to route tasks onto per-backend lanes, to price
  /// their wall time, and to discount round trips already prepaid by
  /// prefetch tickets (DESIGN.md §10).
  std::vector<uint32_t> task_backend;
  std::vector<uint32_t> task_trips;
  /// Parallel to the planned miss span: 1 iff that node was fetched (it is
  /// cached and cost was charged), 0 iff it was refused.
  std::vector<uint8_t> fetched;
  /// Parallel to the planned miss span: the backend index that served the
  /// node's *first real request* attempt (prefetch-prediction ground truth),
  /// or UINT32_MAX when no request was issued for it. May be empty when the
  /// planner does not model per-node routing.
  std::vector<uint32_t> first_backend;
};

/// Response of one individual-user query q(v) (paper Section II-A):
/// the user's profile plus the complete list of connected users.
struct QueryResult {
  NodeId user;
  UserProfile profile;
  std::vector<NodeId> neighbors;

  uint32_t degree() const { return static_cast<uint32_t>(neighbors.size()); }
};

/// Borrowed view of a query response: same information as QueryResult but
/// pointing straight into the interface's immutable backing store, so cache
/// hits cost zero allocations. Valid until the interface is destroyed.
struct QueryView {
  NodeId user = 0;
  const UserProfile* profile = nullptr;
  std::span<const NodeId> neighbors;

  uint32_t degree() const { return static_cast<uint32_t>(neighbors.size()); }
};

/// Checkpointable session state: which users are cached plus the cost
/// counters. `SnapshotSession`/`RestoreSession` round-trip it so a crawl can
/// resume from disk with the exact ledger of an uninterrupted run (see
/// src/service/checkpoint.h).
struct SessionSnapshot {
  std::vector<NodeId> cached_ids;  ///< ascending
  uint64_t unique_queries = 0;
  uint64_t total_requests = 0;
  uint64_t backend_requests = 0;
};

/// The restrictive web interface of an online social network, as seen by a
/// third-party sampler.
///
/// Models the paper's access rules precisely:
///  * the only operation is q(v), returning v's profile and neighbors;
///  * duplicate queries are answered from the sampler's local cache ("any
///    duplicate query can be answered from local cache without consuming
///    the query limit", Section II-B), so cost counts *unique* users only;
///  * the total number of users is public (footnote 4) via `num_users()`;
///  * `RandomUser()` models samplers that exploit a known id space (the
///    Random Jump baseline, Section I-B);
///  * an optional hard query budget makes q(v) report exhaustion, which
///    experiment harnesses use to cap runs.
///
/// The read surface is two virtual calls. `QueryRef(v)` is the one read:
/// q(v) with the response borrowed from the backing store. `FetchBatch(ids)`
/// is the one bulk fetch: it models the bulk endpoints real OSN APIs expose
/// (`users/lookup`-style), answering up to `max_batch_size()` users per
/// backend round trip, and returns only whether each id is cached
/// afterwards. `IsCached` is the one cache test. Everything else is a
/// non-virtual helper built on those three: `Query` copies a `QueryRef`,
/// `BatchQuery` materializes a `FetchBatch`, `PeekCached` and
/// `CachedDegree` read the cache without a request, and `RandomUser` is a
/// `QueryRef` of a uniform id.
///
/// An optional simulated per-request latency makes the round-trip
/// economics measurable: every backend request (one cache-missing
/// `QueryRef`, or one chunk of a `FetchBatch`) sleeps `simulated_latency()`,
/// while cache hits stay free. `BackendRequests()` counts the round trips
/// paid.
///
/// Every cache-missing fetch — single or batched — funnels through the
/// protected `FetchMisses` hook. The default implementation is the paper's
/// one-perfect-backend model; src/service/BackendPool overrides it with a
/// multi-backend fault/retry/failover model without touching the cache or
/// cost-accounting logic here.
///
/// The reads are virtual so schedulers can swap in a thread-safe session
/// (runtime/ConcurrentInterfaceCache) without samplers noticing. This base
/// class itself is single-threaded: concurrent calls on one instance are
/// undefined behavior.
class RestrictedInterface {
 public:
  /// Wraps a network. The interface does not own the network; keep it alive.
  explicit RestrictedInterface(const SocialNetwork& network);

  virtual ~RestrictedInterface() = default;

  RestrictedInterface(const RestrictedInterface&) = delete;
  RestrictedInterface& operator=(const RestrictedInterface&) = delete;

  /// Issues q(v): the one virtual read. Counts one request, and one unit of
  /// query cost iff `v` was never queried before. The response borrows the
  /// interface's storage (valid until destruction). Returns std::nullopt
  /// when the query budget is exhausted and `v` is not cached. Throws
  /// std::invalid_argument on an unknown id.
  virtual std::optional<QueryView> QueryRef(NodeId v);

  /// `QueryRef` plus a copy of the response, for code that stores it.
  std::optional<QueryResult> Query(NodeId v);

  /// Bulk endpoint, the one virtual bulk fetch: issues q(v) for every id,
  /// in order, and returns, per id, 1 iff the id is cached afterwards
  /// (0 = refused). Unique-query cost accounting is identical to calling
  /// `QueryRef` per id; the difference is latency, which is paid once per
  /// backend chunk of up to `max_batch_size()` cache-missing ids instead of
  /// once per miss. Throws std::invalid_argument on an unknown id before it
  /// counts any request.
  virtual std::vector<uint8_t> FetchBatch(std::span<const NodeId> ids);

  /// `FetchBatch` plus a copy of each fetched response (std::nullopt once
  /// the budget runs out).
  std::vector<std::optional<QueryResult>> BatchQuery(
      std::span<const NodeId> ids);

  /// Degree of a previously queried user, without issuing a query.
  /// Returns std::nullopt when `v` has never been queried (its degree is
  /// unknown to a third party) — this powers Theorem 5's N* set — or when
  /// `v` is not a valid user id.
  std::optional<uint32_t> CachedDegree(NodeId v) const;

  /// True iff `v` is a valid user id that has been queried before (and is
  /// hence locally cached). Out-of-range ids are simply not cached.
  virtual bool IsCached(NodeId v) const {
    return v < cached_.size() && cached_[v];
  }

  /// Non-counting cache read: the response for `v` iff it is already
  /// cached, std::nullopt otherwise (including out-of-range ids). Unlike
  /// QueryRef this never issues a fetch and never moves *any* counter —
  /// not even total_requests — so samplers may use it for purely
  /// predictive peeks (Sampler::PeekNextTargets) without perturbing the
  /// checkpointable session state.
  std::optional<QueryView> PeekCached(NodeId v) const {
    if (!IsCached(v)) return std::nullopt;
    return MakeView(v);
  }

  /// Public total user count (paper footnote 4).
  NodeId num_users() const { return network_->num_users(); }

  /// q(v) of a uniformly random user id v, through `QueryRef`: it costs
  /// one unit of query cost iff v was not cached yet (a fresh v is fetched
  /// and cached), like any other read. Used by Random Jump.
  std::optional<QueryView> RandomUser(Rng& rng);

  /// Unique queries issued so far — the paper's query-cost measure.
  virtual uint64_t QueryCost() const { return unique_queries_; }

  /// Total requests including cache hits (for diagnostics only).
  virtual uint64_t TotalRequests() const { return total_requests_; }

  /// Backend round trips paid so far (cache-missing queries plus batch
  /// chunks). With zero simulated latency this is still counted; it is the
  /// crawl's wall-clock cost model.
  virtual uint64_t BackendRequests() const { return backend_requests_; }

  /// Sets a hard budget on unique queries; std::nullopt = unlimited.
  virtual void SetBudget(std::optional<uint64_t> budget) { budget_ = budget; }

  /// Sleep executed per backend round trip; zero (the default) disables the
  /// latency simulation entirely.
  void SetSimulatedLatency(std::chrono::microseconds latency) {
    simulated_latency_ = latency;
  }
  std::chrono::microseconds simulated_latency() const {
    return simulated_latency_;
  }

  /// Maximum ids the bulk endpoint serves per backend round trip (>= 1).
  virtual void SetMaxBatchSize(size_t max_batch_size);
  virtual size_t max_batch_size() const { return max_batch_size_; }

  /// Two-phase fetch for concurrent wrappers (the lane engine): plans the
  /// fetch of `misses` synchronously — routing, budget checks, fault-draw
  /// outcomes, cache marking, and unique-cost accounting all happen before
  /// this returns, exactly as the sync path would decide them — and defers
  /// only per-backend ledger work into the returned tasks. Returns
  /// std::nullopt when the interface has no async-capable backend model
  /// (the base class: one perfect backend with nothing to overlap); callers
  /// then fall back to the sync path.
  ///
  /// Caller contract: `misses` must be valid, distinct, uncached ids; the
  /// call must be externally serialized with every other query-path entry
  /// point (it mutates the cache and cost ledger); and the returned tasks
  /// must all be run before the next checkpoint/stat read reaches the
  /// backend ledgers.
  virtual std::optional<DeferredFetch> PlanFetchMisses(
      std::span<const NodeId> misses);

  /// Pure routing preview for pipelined prefetching (DESIGN.md §10): for
  /// each id, the backend index its first real fetch attempt would be
  /// routed to under the current routing counters, or UINT32_MAX when no
  /// backend would accept it (budget exhaustion). Never mutates any state —
  /// a preview is not a promise, and prefetch tickets built from it are
  /// wall-clock-only. Returns std::nullopt when the interface has no
  /// per-node routing model (the base class: one backend), in which case
  /// callers simply skip prefetching.
  virtual std::optional<std::vector<uint32_t>> PlanPrefetch(
      std::span<const NodeId> ids) const;

  /// Copies out the checkpointable session state (cache + counters).
  virtual SessionSnapshot SnapshotSession() const;

  /// Restores a previously snapshotted session: every id in
  /// `snapshot.cached_ids` becomes cached and the counters are overwritten.
  /// Throws std::invalid_argument on out-of-range ids.
  virtual void RestoreSession(const SessionSnapshot& snapshot);

  /// Clears the cache and counters (new sampler session).
  virtual void Reset();

  /// The wrapped network. Infrastructure/diagnostics use only — sampler
  /// code must never reach around the query interface.
  const SocialNetwork& network() const { return *network_; }

 protected:
  /// Materializes q(v) from the (immutable) network; shared by the cache
  /// implementations. `v` must be a valid id.
  QueryResult MakeResult(NodeId v) const;

  /// Borrowed-view variant of MakeResult (no allocation). Inline: it is
  /// the whole of a cache hit's answer.
  QueryView MakeView(NodeId v) const {
    return {v, &network_->profile(v), network_->graph().Neighbors(v)};
  }

  /// Fetches distinct cache-missing ids from the backend, marking each
  /// successfully fetched id cached (MarkFetched) as it lands. Ids left
  /// uncached on return were refused (budget/backend exhaustion). The
  /// default models one perfectly reliable backend: misses are admitted in
  /// order until the budget runs out, one round trip per chunk of up to
  /// `max_batch_size()` ids. Overridden by the multi-backend pool.
  virtual void FetchMisses(std::span<const NodeId> misses);

  /// True iff `v` is in the local cache (valid id required).
  bool CacheTest(NodeId v) const { return cached_[v]; }

  /// Records a successful fetch of `v`: caches it and charges one unit of
  /// unique-query cost.
  void MarkFetched(NodeId v) {
    cached_[v] = true;
    ++unique_queries_;
  }

  /// True iff a budget is set and spent.
  bool BudgetExhausted() const {
    return budget_.has_value() && unique_queries_ >= *budget_;
  }

  /// Sleeps `simulated_latency()` once (one backend round trip).
  void SimulateRoundTrip();

 private:
  const SocialNetwork* network_;
  std::vector<bool> cached_;
  uint64_t unique_queries_ = 0;
  uint64_t total_requests_ = 0;
  uint64_t backend_requests_ = 0;
  std::optional<uint64_t> budget_;
  std::chrono::microseconds simulated_latency_{0};
  size_t max_batch_size_ = 32;
};

}  // namespace mto
