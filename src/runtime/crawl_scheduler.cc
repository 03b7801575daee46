#include "src/runtime/crawl_scheduler.h"

#include <stdexcept>

#include "src/core/mto_sampler.h"
#include "src/runtime/concurrent_interface_cache.h"

namespace mto {

CrawlScheduler::CrawlScheduler(RestrictedInterface& interface,
                               const CrawlConfig& config, uint64_t seed,
                               const WalkerFactory& factory)
    : interface_(&interface), config_(config) {
  if (config.num_walkers == 0) {
    throw std::invalid_argument("CrawlScheduler: num_walkers must be >= 1");
  }
  if (!factory) {
    throw std::invalid_argument("CrawlScheduler: null walker factory");
  }
  // The scheduler owns the execution shape (threads, stepping mode, fetch
  // mode); when the session is the concurrent cache, configure its fetch
  // path here so every construction site inherits the CrawlConfig choice.
  cache_ = dynamic_cast<ConcurrentInterfaceCache*>(&interface);
  if (cache_ != nullptr) {
    cache_->SetFetchMode(config.fetch_mode, config.fetch_threads);
    cache_->SetPipelineDepth(config.pipeline_depth, config.fetch_threads);
  }
  // Fork per-walker streams in index order: walker i's stream is a function
  // of (seed, i) only, never of num_walkers' layout or num_threads.
  Rng parent(seed);
  rngs_.reserve(config.num_walkers);
  walkers_.reserve(config.num_walkers);
  for (size_t i = 0; i < config.num_walkers; ++i) {
    rngs_.push_back(std::make_unique<Rng>(parent.Fork(i)));
    auto walker = factory(interface, *rngs_.back(), i);
    if (walker == nullptr) {
      throw std::invalid_argument("CrawlScheduler: factory returned null");
    }
    walkers_.push_back(std::move(walker));
  }
  pool_ = std::make_unique<ThreadPool>(config.num_threads);
  proposals_.resize(walkers_.size());
  peeks_.resize(walkers_.size());
}

CrawlScheduler::~CrawlScheduler() = default;

void CrawlScheduler::SetObservability(obs::MetricsRegistry* registry,
                                      obs::TraceLog* trace) {
  trace_ = trace;
  if (registry == nullptr) {
    metrics_ = SchedulerMetrics{};
  } else {
    metrics_.rounds = registry->GetCounter("scheduler.rounds");
    metrics_.steps = registry->GetCounter("scheduler.steps");
    if (!config_.program_label.empty()) {
      metrics_.rounds_labeled = registry->GetCounter(
          "scheduler.rounds", "program", config_.program_label);
      metrics_.steps_labeled = registry->GetCounter(
          "scheduler.steps", "program", config_.program_label);
    }
    metrics_.speculative_commits =
        registry->GetGauge("scheduler.speculative_commits");
    metrics_.speculation_hits =
        registry->GetGauge("scheduler.speculation_hits");
  }
  if (cache_ != nullptr) cache_->SetObservability(registry, trace);
}

void CrawlScheduler::RefreshSpeculationGauges() {
  if (metrics_.speculative_commits == nullptr) return;
  int64_t commits = 0;
  int64_t hits = 0;
  for (const auto& walker : walkers_) {
    if (const auto* mto = dynamic_cast<const MtoSampler*>(walker.get())) {
      commits += static_cast<int64_t>(mto->speculative_commits());
      hits += static_cast<int64_t>(mto->speculation_hits());
    }
  }
  metrics_.speculative_commits->Set(commits);
  metrics_.speculation_hits->Set(hits);
}

void CrawlScheduler::RunRounds(size_t rounds,
                               std::vector<double>* diagnostics) {
  obs::TraceSpan span(trace_, "scheduler.rounds", rounds);
  const bool pipelined = cache_ != nullptr && cache_->PipelineActive();
  if (config_.coalesce_frontier) {
    RunCoalescedRounds(rounds, diagnostics);
  } else {
    RunFreeRounds(rounds, diagnostics);
  }
  // RunRounds boundaries are unit boundaries for the service layer
  // (checkpoints, ledger/stat reads): leave the pipeline quiescent.
  if (pipelined) cache_->DrainPipeline();
  total_steps_ += rounds * walkers_.size();
  ObsAdd(metrics_.rounds, rounds);
  ObsAdd(metrics_.steps, rounds * walkers_.size());
  ObsAdd(metrics_.rounds_labeled, rounds);
  ObsAdd(metrics_.steps_labeled, rounds * walkers_.size());
  // Passive read of the walkers' own speculation counters — legal here
  // because no walker is running between RunRounds calls.
  RefreshSpeculationGauges();
}

void CrawlScheduler::RunFreeRounds(size_t rounds,
                                   std::vector<double>* diagnostics) {
  const size_t W = walkers_.size();
  size_t diag_base = 0;
  if (diagnostics != nullptr) {
    diag_base = diagnostics->size();
    diagnostics->resize(diag_base + rounds * W);
  }
  pool_->Run([&](size_t t) {
    auto [begin, end] = ThreadPool::BlockRange(W, pool_->size(), t);
    for (size_t i = begin; i < end; ++i) {
      Sampler& w = *walkers_[i];
      if (diagnostics == nullptr) {
        // Hot path: no per-round bookkeeping, best cache locality.
        for (size_t r = 0; r < rounds; ++r) w.Step();
      } else {
        for (size_t r = 0; r < rounds; ++r) {
          w.Step();
          // Disjoint slot per (round, walker); round-major, walker order.
          (*diagnostics)[diag_base + r * W + i] =
              w.CurrentDegreeForDiagnostic();
        }
      }
    }
  });
}

void CrawlScheduler::FetchFrontier(bool pipelined) {
  // Fetch the deduplicated uncached frontier in bulk, in walker order, on
  // the coordinator between regions: no walker runs, so the IsCached
  // filter and FetchBatch's request count never depend on timing. The
  // pipelined engine plans it exactly like FetchBatch would — same
  // thread, same order, identical state mutations — but returns as soon
  // as the outcomes are *planned* (cache marked, costs charged), leaving
  // the per-backend latency in flight on the lanes while the commits run.
  frontier_.clear();
  for (const std::optional<NodeId>& proposal : proposals_) {
    if (!proposal) continue;
    const NodeId v = *proposal;
    if (interface_->IsCached(v)) continue;
    if (v >= in_frontier_.size()) in_frontier_.resize(size_t{v} + 1);
    if (in_frontier_[v]) continue;
    in_frontier_[v] = true;
    frontier_.push_back(v);
  }
  for (const NodeId v : frontier_) in_frontier_[v] = false;
  if (frontier_.empty()) return;
  obs::TraceSpan fetch_span(trace_,
                            pipelined ? "frontier.plan" : "frontier.fetch",
                            frontier_.size());
  if (pipelined) {
    cache_->PipelinedFetch(frontier_);
  } else {
    interface_->FetchBatch(frontier_);
  }
}

void CrawlScheduler::RunCoalescedRounds(size_t rounds,
                                        std::vector<double>* diagnostics) {
  const size_t W = walkers_.size();
  double* slots = nullptr;
  if (diagnostics != nullptr) {
    const size_t diag_base = diagnostics->size();
    diagnostics->resize(diag_base + rounds * W);
    slots = diagnostics->data() + diag_base;
  }
  const bool pipelined = cache_ != nullptr && cache_->PipelineActive();
  const size_t width = config_.pipeline_depth;
  // Draws or peeks walker w's step target; proposals never fetch.
  auto propose = [](Sampler& w) {
    return w.step_protocol() == StepProtocol::kSingleStep ? std::nullopt
                                                           : w.ProposeStep();
  };
  // One region per round (DESIGN.md §6): round 0's proposals get a region
  // of their own; after that, walker i commits round r, writes its
  // diagnostic slot, peeks when pipelined and proposes round r + 1 in the
  // same region. Propose reads only the walker's own state and its own
  // current node, which its own commit just cached, so overlapping it with
  // other walkers' commits changes no sample. The last round proposes
  // nothing: a proposal never crosses a RunRounds call, because the
  // service checkpoints (and MTO draws importance weights) in between.
  for (size_t r = 0; r < rounds; ++r) {
    obs::TraceSpan round_span(
        trace_, pipelined ? "round.pipelined" : "round.coalesced");
    if (r == 0) {
      pool_->Run([&](size_t t) {
        auto [begin, end] = ThreadPool::BlockRange(W, pool_->size(), t);
        for (size_t i = begin; i < end; ++i) {
          proposals_[i] = propose(*walkers_[i]);
        }
      });
    }
    FetchFrontier(pipelined);
    const bool last = r + 1 == rounds;
    double* round_slots = slots == nullptr ? nullptr : slots + r * W;
    pool_->Run([&](size_t t) {
      auto [begin, end] = ThreadPool::BlockRange(W, pool_->size(), t);
      for (size_t i = begin; i < end; ++i) {
        Sampler& w = *walkers_[i];
        // Commit against the now-warm cache. kTwoPhase walks move (only)
        // to their announced target; kSpeculative walks re-validate their
        // speculation inside CommitStep (or take a plain Step when there
        // was nothing to prefetch); kSingleStep walks take their whole
        // step here.
        switch (w.step_protocol()) {
          case StepProtocol::kSingleStep:
            w.Step();
            break;
          case StepProtocol::kTwoPhase:
            if (proposals_[i]) w.CommitStep(*proposals_[i]);
            break;
          case StepProtocol::kSpeculative:
            if (proposals_[i]) {
              w.CommitStep(*proposals_[i]);
            } else {
              w.Step();
            }
            break;
        }
        if (round_slots != nullptr) {
          round_slots[i] = w.CurrentDegreeForDiagnostic();
        }
        // Peeks are pure reads on the saved RNG state, so they come before
        // the propose that consumes it.
        if (pipelined) {
          peeks_[i].clear();
          w.PeekNextTargets(width, peeks_[i]);
        }
        if (!last) proposals_[i] = propose(w);
      }
    });
    if (!pipelined) continue;
    // Turn the peeks into prefetch tickets. The hints call runs even when
    // empty: it is the deterministic invalidation point for the previous
    // step's stale tickets (DESIGN.md §10).
    predicted_.clear();
    for (const std::vector<NodeId>& peeks : peeks_) {
      predicted_.insert(predicted_.end(), peeks.begin(), peeks.end());
    }
    cache_->PostPrefetchHints(predicted_);
  }
}

std::vector<CrawlScheduler::WalkerState> CrawlScheduler::SnapshotWalkers()
    const {
  std::vector<WalkerState> states;
  states.reserve(walkers_.size());
  for (size_t i = 0; i < walkers_.size(); ++i) {
    states.push_back({walkers_[i]->current(), rngs_[i]->SaveState(),
                      walkers_[i]->PreviousNode()});
  }
  return states;
}

void CrawlScheduler::RestoreWalkers(const std::vector<WalkerState>& states,
                                    uint64_t total_steps) {
  if (states.size() != walkers_.size()) {
    throw std::invalid_argument(
        "RestoreWalkers: walker count mismatch with snapshot");
  }
  for (size_t i = 0; i < walkers_.size(); ++i) {
    walkers_[i]->Teleport(states[i].position);
    // After the Teleport: teleports clear the second-order register on
    // walks that carry one, and the snapshot's value must win.
    walkers_[i]->RestorePrevious(states[i].previous);
    rngs_[i]->RestoreState(states[i].rng_state);
  }
  total_steps_ = total_steps;
}

std::vector<NodeId> CrawlScheduler::Positions() const {
  std::vector<NodeId> out;
  out.reserve(walkers_.size());
  for (const auto& w : walkers_) out.push_back(w->current());
  return out;
}

}  // namespace mto
