#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/net/restricted_interface.h"
#include "src/obs/metrics.h"
#include "src/service/retry_policy.h"
#include "src/util/rng.h"

namespace mto {

/// One API backend (key/region): its quota, pacing, latency, and failure
/// behavior. All randomness is drawn from pure-function streams keyed on
/// (fault_seed, backend, node, attempt), so a backend's behavior toward a
/// given fetch is identical across runs, thread interleavings, and
/// checkpoint resume.
struct BackendConfig {
  std::string name;  ///< e.g. "key-0", "us-east"; defaulted if empty

  /// Unique queries this backend may pay for; std::nullopt = unlimited.
  std::optional<uint64_t> budget;

  /// Token-bucket rate limit in requests per *simulated* second; 0 disables
  /// pacing. `burst` is the bucket capacity in tokens (>= 1).
  double rate_per_sec = 0.0;
  double burst = 1.0;

  /// Per-request latency: log-normal with this mean (in simulated
  /// microseconds) and shape `latency_sigma` (0 = constant latency).
  uint64_t latency_mean_us = 0;
  double latency_sigma = 0.0;

  /// Per-attempt fault probabilities (independent draws, must sum <= 1):
  /// a timeout burns `timeout_us` of simulated time and fails; a transient
  /// error fails fast; a quota rejection models 429-style throttling.
  double timeout_rate = 0.0;
  double error_rate = 0.0;
  double quota_rate = 0.0;
  uint64_t timeout_us = 50'000;

  /// Throws std::invalid_argument on out-of-range fields.
  void Validate() const;
};

/// Running counters of one backend.
struct BackendStats {
  uint64_t unique_queries = 0;  ///< unique fetches this backend paid for
  uint64_t requests = 0;        ///< round trips, including failed attempts
  uint64_t failed_requests = 0;
  uint64_t timeouts = 0;
  uint64_t transient_errors = 0;
  uint64_t quota_rejections = 0;
  uint64_t budget_refusals = 0;  ///< fetches turned away at the door
  uint64_t pacing_waits = 0;     ///< requests the token bucket delayed
  uint64_t simulated_us = 0;     ///< simulated time spent (latency + waits)
};

/// Checkpointable per-backend state: the stats plus the token bucket.
struct BackendLedger {
  BackendStats stats;
  double bucket_tokens = 0.0;
  uint64_t clock_us = 0;        ///< backend-local simulated clock
  uint64_t last_refill_us = 0;  ///< bucket refill watermark on that clock
};

/// How the pool picks the backend that serves a cache miss. Both policies
/// route as a pure function of (node, spent-budget set): no cursor or load
/// state enters, so per-backend costs are bit-identical across thread
/// interleavings, engines, and resume (the ledger-sharding mode; see the
/// class comment).
enum class BackendSelection {
  /// Backend `v % N` serves node v; failover walks the remaining backends
  /// in index order. `v % N` aliases badly on strided or skewed node-id
  /// populations.
  kSharded,
  /// Rendezvous (highest-random-weight) hashing on (backend name, node):
  /// node v is served by the backend with the highest hash score for v, and
  /// fails over down the score order. The hash mixes node ids uniformly (no
  /// aliasing on strided/skewed id populations) and fleet changes only move
  /// the nodes whose top scorer changed (minimal disruption). Backend names
  /// are unique, so scores tie only on an FNV-1a name-hash collision; ties
  /// break toward the lower index. Backends whose budget is spent sort
  /// behind all live ones instead of emitting a refusal op (see RouteOrder).
  kRendezvous,
};

const char* BackendSelectionName(BackendSelection selection);

/// Multi-backend crawl session: a `RestrictedInterface` whose cache-missing
/// fetches are served by N simulated backends with independent budgets,
/// token-bucket rate pacing, latency distributions, and seeded fault
/// injection, behind bounded-retry failover (RetryPolicy).
///
/// The cache, unique-cost accounting, and query semantics live unchanged in
/// the base class; this class only overrides the `FetchMisses` hook. Every
/// unique fetch costs one request on whichever backend ends up serving it —
/// per-user endpoints under per-key quotas, the restricted-access regime
/// the paper models. (Chunk amortization of `BatchQuery` is a property of
/// the single-backend transport; a bulk endpoint with keyed quotas is
/// modeled here by scaling a backend's rate/budget.)
///
/// Determinism: fault, latency, and jitter draws are pure functions of
/// (fault_seed, backend, node, attempt) — never of arrival order — so
/// whether a given node's fetch ultimately succeeds, and on which backend,
/// is independent of thread interleaving. Walker
/// trajectories therefore stay bit-identical across thread counts and
/// stepping modes even with faults injected, as long as no budget (pool- or
/// backend-level) is exhausted mid-crawl — exhaustion order is the one
/// interleaving-dependent quantity, the same caveat the plain budget
/// carries (see CrawlScheduler).
///
/// Internally every fetch is split into two halves (DESIGN.md §9):
///  * a **routing front** — selection, budget checks, fault-draw outcomes,
///    cache marking, unique-cost accounting — that runs synchronously on
///    the caller and reads only its own per-backend counters (never the
///    ledgers), so outcomes are decided before any ledger is touched; and
///  * **per-backend ledger application** — pacing, virtual clocks, stats —
///    behind one fine-grained mutex per backend, with no cross-backend
///    state, so ledgers of different backends can be applied concurrently.
/// The sync path (`FetchMisses`) runs both halves inline; the async path
/// (`PlanFetchMisses`) returns the second half as per-backend tasks for a
/// concurrent executor. Because the two paths share the plan verbatim and
/// a backend's ledger evolution depends only on its own op sequence, the
/// async path's outcomes, costs, and ledgers are bit-identical to sync.
///
/// Like the base class, routing is single-threaded: serialize query-path
/// entry points externally (runtime/ConcurrentInterfaceCache does). Only
/// the deferred apply tasks may run concurrently. Simulated time (latency,
/// backoff, pacing) is charged to per-backend virtual clocks, not slept,
/// so scenario sweeps run at full CPU speed; real round-trip time, when
/// simulated at all, is paid by the concurrent wrapper's lanes
/// (runtime/ConcurrentInterfaceCache), which is what makes distinct
/// backends overlap in real time.
class BackendPool final : public RestrictedInterface {
 public:
  /// `backends` must be non-empty; configs are validated. Empty names
  /// default to `key-<index>`; duplicate names (after defaulting) throw
  /// std::invalid_argument — per-backend gauges and rendezvous scores are
  /// keyed by name.
  BackendPool(const SocialNetwork& network,
              std::vector<BackendConfig> backends, RetryPolicy retry,
              BackendSelection selection, uint64_t fault_seed);

  size_t num_backends() const { return configs_.size(); }
  const BackendConfig& backend_config(size_t b) const { return configs_[b]; }
  /// Copied under the backend's ledger mutex (safe against in-flight
  /// async applies, though steady only at quiescence).
  BackendStats backend_stats(size_t b) const;
  std::vector<BackendStats> AllBackendStats() const;
  BackendSelection selection() const { return selection_; }

  /// Fetches permanently refused (all backends exhausted their attempts or
  /// budgets). Each refusal left its node uncached; a later query retries.
  uint64_t FailedFetches() const { return failed_fetches_; }

  /// Round trips paid across all backends, including failed attempts.
  uint64_t BackendRequests() const override;

  /// Pool-wide simulated time: the max over backend clocks (backends run
  /// in parallel in the simulation).
  uint64_t SimulatedTimeUs() const;

  /// Checkpointable pool state beyond the base-class session (which is
  /// snapshotted separately via SnapshotSession).
  struct PoolSnapshot {
    std::vector<BackendLedger> ledgers;
    uint64_t failed_fetches = 0;
  };
  PoolSnapshot SnapshotBackends() const;
  /// Throws std::invalid_argument when the backend count mismatches.
  void RestoreBackends(const PoolSnapshot& snapshot);

  void Reset() override;

  /// Publishes the current ledgers into `registry` as labeled gauges
  /// (backend.requests{backend=name}, .unique_queries, .failed_requests,
  /// .timeouts, .transient_errors, .quota_rejections, .budget_refusals,
  /// .pacing_waits, .simulated_us, .budget_remaining where budgeted) plus
  /// pool.failed_fetches / pool.backend_requests / pool.simulated_us.
  /// Strictly a pull: reads each ledger under its mutex and writes the
  /// registry — the fetch path carries no extra bookkeeping. Call at
  /// quiescent points (between rounds / at snapshot time).
  void PublishMetrics(obs::MetricsRegistry& registry) const;

  /// The async fetch entry point (see RestrictedInterface): plans every
  /// miss on the calling thread and returns one deferred ledger/latency
  /// task per backend touched, in-plan-order within each backend.
  std::optional<DeferredFetch> PlanFetchMisses(
      std::span<const NodeId> misses) override;

  /// Routing preview for the pipelined prefetcher: always answers, with
  /// each id's first budget-capable backend in its route order (UINT32_MAX
  /// when every backend's budget is spent). Reads the plan-time routing
  /// counters only; mutates nothing.
  std::optional<std::vector<uint32_t>> PlanPrefetch(
      std::span<const NodeId> ids) const override;

 protected:
  /// The sync multi-backend fetch path: each miss runs the select →
  /// budget → fault-draw plan, and its ledger work (pace, latency,
  /// backoff) is applied inline. Same plan/apply code as the async path.
  void FetchMisses(std::span<const NodeId> misses) override;

 private:
  enum class Fault { kNone, kTimeout, kTransientError, kQuotaRejected };

  /// The pure per-attempt draw: latency and fault outcome from the
  /// (fault_seed, backend, node, attempt) stream. Arrival order and
  /// ledger state never enter.
  struct AttemptDraw {
    uint64_t latency_us = 0;
    Fault fault = Fault::kNone;
  };
  AttemptDraw DrawAttempt(size_t b, NodeId v, uint64_t attempt) const;

  /// One deferred ledger mutation: a request attempt (pace + latency +
  /// fault bookkeeping) or a budget refusal. Applied under the owning
  /// backend's ledger mutex. The plan's draw rides along so the apply
  /// never recomputes the RNG stream.
  struct LedgerOp {
    NodeId node = 0;
    uint32_t attempt = 0;  ///< global attempt index of this node's fetch
    uint8_t refusal = 0;   ///< 1 = budget refusal (no request issued)
    AttemptDraw draw;      ///< unused when refusal
  };

  /// Order in which backends are tried for node v: for kSharded `v % N`
  /// then index-order failover; for kRendezvous the descending score order
  /// with budget-spent backends partitioned to the back. A pure function of
  /// (node, spent-budget set) — shared by the real plan and PlanPrefetch.
  /// `scores` is scratch: each backend is scored once per call.
  void RouteOrder(NodeId v, std::vector<size_t>& order,
                  std::vector<uint64_t>& scores) const;

  /// Rendezvous score of backend b for node v: a pure hash of the
  /// backend's (stable) name hash and the node id.
  uint64_t RendezvousScore(size_t b, NodeId v) const;

  /// Routing front for one node: runs the retry/failover loop against the
  /// routing counters, appends the resulting ledger ops per backend, and
  /// on success marks the node fetched. Returns true iff fetched. When
  /// `first_request_backend` is non-null it receives the backend of the
  /// node's first real (non-refusal) request, or UINT32_MAX if none was
  /// issued — the prefetch-prediction ground truth.
  bool PlanOne(NodeId v, std::vector<std::vector<LedgerOp>>& per_backend,
               uint32_t* first_request_backend = nullptr);

  /// Applies one backend's planned ops to its ledger, under that ledger's
  /// mutex. Pure ledger math: the caller pays any real round-trip time.
  void ApplyOps(size_t b, std::span<const LedgerOp> ops);

  /// Token-bucket pacing on the backend's virtual clock. Caller holds the
  /// backend's ledger mutex.
  void PaceRequest(size_t b);

  /// Re-derives routed_unique_ from the ledgers (construction,
  /// Reset, RestoreBackends — all quiescent points where they agree).
  void SyncRoutingCounters();

  std::vector<BackendConfig> configs_;
  std::vector<BackendLedger> ledgers_;
  /// One lock per ledger; never held across backends, so apply tasks of
  /// different backends are fully independent.
  mutable std::unique_ptr<std::mutex[]> ledger_mutexes_;
  RetryPolicy retry_;
  BackendSelection selection_;
  uint64_t fault_seed_;
  uint64_t failed_fetches_ = 0;
  /// Routing-front mirror of each backend's unique queries, updated at plan
  /// time so budget decisions never wait on — or race with — deferred
  /// ledger applies.
  std::vector<uint64_t> routed_unique_;
  /// Stable per-backend name hashes for rendezvous scoring (computed once;
  /// a backend keeps its scores when siblings come and go).
  std::vector<uint64_t> name_hashes_;
  /// Per-backend draw constants, fixed at construction: the root of the
  /// backend's (fault_seed, backend) stream, which DrawAttempt forks per
  /// (node, attempt), and the log-normal mu that keeps the latency mean at
  /// latency_mean_us.
  std::vector<Rng> draw_roots_;
  std::vector<double> latency_mu_;
  std::vector<size_t> order_scratch_;
  std::vector<uint64_t> score_scratch_;
  std::vector<std::vector<LedgerOp>> plan_scratch_;
};

}  // namespace mto
