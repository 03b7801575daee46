#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "src/walk/sampler.h"

namespace mto {

/// Inert: only CrawlConfig's no-op `schedule` field names it (see there).
enum class ScheduleMode { kWalker, kBlock };

/// Configuration of a CrawlScheduler.
struct CrawlConfig {
  /// Number of concurrent walkers (>= 1).
  size_t num_walkers = 8;
  /// Worker threads stepping them (>= 1). Walkers are statically sharded
  /// across threads in contiguous blocks.
  size_t num_threads = 1;
  /// When true, every round runs in two phases: all walkers propose their
  /// step targets (per-walker RNG, no fetches), the deduplicated frontier
  /// is fetched through the interface's bulk endpoint, then all walkers
  /// commit. This trades one barrier per round (each walker's commit and
  /// next propose share a region) for coalesced backend round trips — the
  /// winning mode when per-request latency dominates.
  /// When false, walkers free-run between sync points via plain Step() —
  /// the winning mode when the crawl is CPU-bound. Trajectories are
  /// bit-identical either way.
  bool coalesce_frontier = false;
  /// Miss-fetch execution mode, applied to the interface when it is a
  /// ConcurrentInterfaceCache: kAsync runs each backend's round trips on
  /// its own FIFO lane, so misses served by different backends overlap
  /// (multi-backend sessions only; a single-backend session silently
  /// behaves like kSync). Samples, costs, and per-backend ledgers are
  /// bit-identical across modes — the fetch mode, like num_threads, is
  /// pure execution shape (DESIGN.md §9).
  FetchMode fetch_mode = FetchMode::kSync;
  /// Lanes of the async and pipelined engines; 0 = auto (see
  /// ConcurrentInterfaceCache). Backend b rides lane `b % fetch_threads`.
  size_t fetch_threads = 0;
  /// Pipelined rounds (coalesced stepping over a ConcurrentInterfaceCache
  /// only; ignored otherwise): with depth k >= 1, up to k rounds of
  /// deferred per-backend latency work stay in flight behind the crawl on
  /// per-backend FIFO lanes, and each round ends with a speculative peek
  /// phase that prefetches up to k predicted targets per walker as
  /// wall-clock-only tickets. 0 (default) keeps the lock-step round shape.
  /// Like fetch_mode and num_threads this is pure execution shape: samples,
  /// trace, estimates, costs, and per-backend ledgers are bit-identical to
  /// sync mode (DESIGN.md §10).
  size_t pipeline_depth = 0;
  /// Walk-program label for per-program metric twins
  /// (scheduler.rounds{program=...} / scheduler.steps{program=...});
  /// empty = no labeled twins. Purely observational — never consulted on
  /// the step path.
  std::string program_label = {};
  /// No-op fields, read by nothing. perfbench/perfbench.cc still assigns
  /// them, and that file changes only together with the benchmark; the
  /// benchmark's next revision drops those assignments, then these names.
  /// Walker-major is the one execution order.
  ScheduleMode schedule = ScheduleMode::kWalker;
  NodeId block_size = 0;
  size_t resident_blocks = 0;
  std::string spill_dir = {};
};

/// Shards W walkers across a fixed thread pool, deterministically.
///
/// Determinism contract (crawl_scheduler_test pins it): walker i's RNG is
/// `Rng(seed).Fork(i)`, forked in index order at construction, and a
/// walker's trajectory depends only on its own stream and the immutable
/// network. Positions after any number of rounds —
/// and everything derived from them in walker order, diagnostics and
/// samples included — are therefore bit-identical for a fixed
/// (seed, num_walkers) across num_threads = 1, 2, 8, ... and across both
/// stepping modes. The shared cache only affects *cost*, never results.
/// (A finite shared query budget breaks this: which walker wins the last
/// queries then depends on thread interleaving. Budgets still cap cost
/// exactly; they just void the bit-identity guarantee.)
///
/// The interface handed in must be safe for `num_threads` concurrent
/// callers — i.e. a runtime/ConcurrentInterfaceCache unless num_threads
/// is 1.
class CrawlScheduler {
 public:
  /// Builds walker i over (`interface`, its forked rng, index i).
  /// The factory chooses start nodes; it runs on the calling thread.
  using WalkerFactory = std::function<std::unique_ptr<Sampler>(
      RestrictedInterface& interface, Rng& rng, size_t walker_index)>;

  CrawlScheduler(RestrictedInterface& interface, const CrawlConfig& config,
                 uint64_t seed, const WalkerFactory& factory);
  ~CrawlScheduler();

  /// Advances every walker `rounds` steps. When `diagnostics` is non-null
  /// it receives one CurrentDegreeForDiagnostic() value per walker per
  /// round, round-major in walker order (appended; `rounds * size()`
  /// values) — the multi-chain trace the burn-in Geweke monitor consumes.
  void RunRounds(size_t rounds, std::vector<double>* diagnostics = nullptr);

  size_t size() const { return walkers_.size(); }
  size_t num_threads() const { return pool_->size(); }

  /// Walker access — only between RunRounds calls (no walker is running).
  Sampler& walker(size_t i) { return *walkers_.at(i); }

  /// Current positions, in walker order.
  std::vector<NodeId> Positions() const;

  /// One weighted sample per walker in walker order, appended to the output
  /// vectors; runs on the calling thread (deterministic collection order).
  template <typename AttributeFn>
  void Collect(AttributeFn attribute_of, std::vector<double>& values,
               std::vector<double>& weights) {
    for (auto& w : walkers_) {
      values.push_back(attribute_of(*w));
      weights.push_back(w->ImportanceWeight());
    }
  }

  /// Total steps taken across all walkers (rounds * size()).
  uint64_t total_steps() const { return total_steps_; }

  /// Checkpointable per-walker state. Captured and restored only between
  /// RunRounds calls, where a walker's full state is its position plus its
  /// RNG stream — plus, for second-order programs (node2vec), the previous
  /// node of its (prev, cur) frontier. (MTO additionally carries its
  /// mutable overlay; the service layer snapshots/restores that separately
  /// via MtoSampler's SnapshotOverlay/RestoreOverlay — see
  /// src/service/checkpoint.h.)
  struct WalkerState {
    NodeId position = 0;
    std::array<uint64_t, 4> rng_state{};
    /// Second-order register (Sampler::PreviousNode); nullopt for one-node
    /// walks and for fresh/teleported second-order walks. Serialized in
    /// checkpoint format v3's own section, not the v2 walker record.
    std::optional<NodeId> previous = std::nullopt;
  };

  /// Snapshots every walker (position + RNG state), walker order.
  std::vector<WalkerState> SnapshotWalkers() const;

  /// Restores a snapshot taken from a scheduler with the same
  /// (seed, num_walkers, factory): teleports each walker and overwrites its
  /// RNG stream, and sets the step counter. Restored positions must already
  /// be cached in the interface (RestoreSession runs first), so subsequent
  /// steps replay exactly.
  void RestoreWalkers(const std::vector<WalkerState>& states,
                      uint64_t total_steps);

  /// Attaches passive telemetry (null pointers detach) and forwards it to
  /// the concurrent cache when the scheduler drives one. Round spans land
  /// on the trace; scheduler.rounds / scheduler.steps count progress; the
  /// speculation gauges (scheduler.speculative_commits / speculation_hits)
  /// are refreshed after every RunRounds by *reading* the MTO walkers'
  /// own counters — observability never adds bookkeeping to the step path.
  /// Call between RunRounds calls only.
  void SetObservability(obs::MetricsRegistry* registry, obs::TraceLog* trace);

 private:
  void RunFreeRounds(size_t rounds, std::vector<double>* diagnostics);
  /// Coalesced and pipelined rounds, one pool region each: a region where
  /// every walker proposes, then per round the coordinator fetches the
  /// frontier and one region commits round r, writes the diagnostic slots,
  /// peeks (pipelined) and proposes round r + 1 (none after the last).
  void RunCoalescedRounds(size_t rounds, std::vector<double>* diagnostics);
  /// Coordinator step between regions: dedupes the proposals' uncached
  /// targets in walker order and fetches them through BatchQuery, or plans
  /// them without a join under a live pipeline (DESIGN.md §10).
  void FetchFrontier(bool pipelined);

  RestrictedInterface* interface_;
  /// Non-null iff `interface_` is the concurrent cache (then they alias).
  class ConcurrentInterfaceCache* cache_ = nullptr;
  CrawlConfig config_;
  std::vector<std::unique_ptr<Rng>> rngs_;  // outlive the walkers
  std::vector<std::unique_ptr<Sampler>> walkers_;
  std::unique_ptr<ThreadPool> pool_;
  uint64_t total_steps_ = 0;

  /// Resolved metric pointers; all null when observability is off. The
  /// labeled twins carry the program label from CrawlConfig (null when the
  /// label is empty); the plain counters always stay — CI's live scrape
  /// requires the unlabeled scheduler_rounds family.
  struct SchedulerMetrics {
    obs::Counter* rounds = nullptr;
    obs::Counter* steps = nullptr;
    obs::Counter* rounds_labeled = nullptr;
    obs::Counter* steps_labeled = nullptr;
    obs::Gauge* speculative_commits = nullptr;
    obs::Gauge* speculation_hits = nullptr;
  };
  SchedulerMetrics metrics_;
  obs::TraceLog* trace_ = nullptr;

  /// Refreshes the speculation gauges from the walkers' counters (pure
  /// reads; no-op when metrics are off or no walker is an MtoSampler).
  void RefreshSpeculationGauges();

  // Scratch for coalesced rounds (stable across rounds to avoid churn).
  std::vector<std::optional<NodeId>> proposals_;
  std::vector<NodeId> frontier_;
  // Dedupe marks for frontier_, indexed by node id; all false between
  // rounds, so a round costs no allocation once it has grown.
  std::vector<bool> in_frontier_;
  std::vector<std::vector<NodeId>> peeks_;  // per-walker prefetch hints
  std::vector<NodeId> predicted_;
};

}  // namespace mto
