#include "src/runtime/crawl_scheduler.h"

#include <stdexcept>
#include <unordered_set>

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
  if (config.schedule == ScheduleMode::kBlock && config.block_size == 0) {
    throw std::invalid_argument("CrawlScheduler: block_size must be >= 1");
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
  all_walkers_.resize(walkers_.size());
  for (size_t i = 0; i < walkers_.size(); ++i) all_walkers_[i] = i;
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
  if (config_.schedule == ScheduleMode::kBlock) {
    RunBlockRounds(rounds, diagnostics);
  } else if (config_.coalesce_frontier) {
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

template <typename SlotFn>
void CrawlScheduler::StepActive(std::span<const size_t> active,
                                std::vector<double>* diagnostics,
                                SlotFn slot) {
  const size_t A = active.size();
  const bool pipelined = cache_ != nullptr && cache_->PipelineActive();
  // Phase 1 (parallel): draw or peek step targets; proposals never fetch.
  pool_->Run([&](size_t t) {
    auto [begin, end] = ThreadPool::BlockRange(A, pool_->size(), t);
    for (size_t k = begin; k < end; ++k) {
      Sampler& w = *walkers_[active[k]];
      proposals_[active[k]] = w.step_protocol() == StepProtocol::kSingleStep
                                  ? std::nullopt
                                  : w.ProposeStep();
    }
  });
  // Phase 2 (coordinator): fetch the deduplicated uncached frontier in
  // bulk, in walker order. Targets may live anywhere in the graph. The
  // pipelined engine plans it exactly like BatchQuery would — same thread,
  // same order, identical state mutations — but returns as soon as the
  // outcomes are *planned* (cache marked, costs charged), leaving the
  // per-backend latency in flight on the lanes while phase 3 commits.
  frontier_.clear();
  {
    std::unordered_set<NodeId> seen;
    for (const size_t i : active) {
      if (!proposals_[i]) continue;
      const NodeId v = *proposals_[i];
      if (!interface_->IsCached(v) && seen.insert(v).second) {
        frontier_.push_back(v);
      }
    }
  }
  if (!frontier_.empty()) {
    obs::TraceSpan fetch_span(trace_,
                              pipelined ? "frontier.plan" : "frontier.fetch",
                              frontier_.size());
    if (pipelined) {
      cache_->PipelinedFetch(frontier_);
    } else {
      interface_->BatchQuery(frontier_);
    }
  }
  // Phase 3 (parallel): commit against the now-warm cache. kTwoPhase walks
  // move (only) to their announced target; kSpeculative walks re-validate
  // their speculation inside CommitStep (or take a plain Step when there
  // was nothing to prefetch); kSingleStep walks take their whole step here.
  pool_->Run([&](size_t t) {
    auto [begin, end] = ThreadPool::BlockRange(A, pool_->size(), t);
    for (size_t k = begin; k < end; ++k) {
      const size_t i = active[k];
      Sampler& w = *walkers_[i];
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
      if (diagnostics != nullptr) {
        (*diagnostics)[slot(i)] = w.CurrentDegreeForDiagnostic();
      }
    }
  });
  if (!pipelined) return;
  // Phase 4 (parallel peek, then coordinator publish): ask each walker for
  // its predicted next targets — pure reads on saved RNG state, so this
  // perturbs nothing — and turn them into prefetch tickets. The hints call
  // runs even when empty: it is the deterministic invalidation point for
  // the previous step's stale tickets.
  const size_t width = config_.pipeline_depth;
  pool_->Run([&](size_t t) {
    auto [begin, end] = ThreadPool::BlockRange(A, pool_->size(), t);
    for (size_t k = begin; k < end; ++k) {
      peeks_[active[k]].clear();
      walkers_[active[k]]->PeekNextTargets(width, peeks_[active[k]]);
    }
  });
  predicted_.clear();
  for (const size_t i : active) {
    for (NodeId v : peeks_[i]) predicted_.push_back(v);
  }
  cache_->PostPrefetchHints(predicted_);
}

void CrawlScheduler::RunCoalescedRounds(size_t rounds,
                                        std::vector<double>* diagnostics) {
  const size_t W = walkers_.size();
  size_t diag_base = 0;
  if (diagnostics != nullptr) {
    diag_base = diagnostics->size();
    diagnostics->resize(diag_base + rounds * W);
  }
  const bool pipelined = cache_ != nullptr && cache_->PipelineActive();
  for (size_t r = 0; r < rounds; ++r) {
    obs::TraceSpan round_span(
        trace_, pipelined ? "round.pipelined" : "round.coalesced");
    StepActive(all_walkers_, diagnostics,
               [&](size_t i) { return diag_base + r * W + i; });
  }
}

void CrawlScheduler::RunBlockRounds(size_t rounds,
                                    std::vector<double>* diagnostics) {
  obs::TraceSpan window_span(trace_, "rounds.block", rounds);
  const size_t W = walkers_.size();
  // Blocks are contiguous id ranges: node v lives in block v / block_size.
  const NodeId block_size = config_.block_size;
  const size_t num_blocks =
      (size_t{interface_->num_users()} + block_size - 1) / block_size;
  const auto block_of = [&](size_t i) -> uint32_t {
    return walkers_[i]->current() / block_size;
  };
  size_t diag_base = 0;
  if (diagnostics != nullptr) {
    diag_base = diagnostics->size();
    diagnostics->resize(diag_base + rounds * W);
  }
  if (rounds == 0) return;
  // Per-walker remaining steps in this window. Block order only changes
  // *when* a walker steps, never its trajectory: walker i's next move is a
  // pure function of its own RNG stream and the immutable network, and
  // CommitStep demand-fetches anything the frontier warm-up missed. The
  // diagnostics trace is also order-free — each step writes its value to
  // the same round-major slot walker-major would (diag_base + r*W + i).
  std::vector<size_t> remaining(W, rounds);
  std::vector<std::vector<size_t>> buckets(num_blocks);
  std::vector<uint64_t> pressure(num_blocks, 0);
  for (size_t i = 0; i < W; ++i) {
    const uint32_t b = block_of(i);
    buckets[b].push_back(i);
    pressure[b] += rounds;
  }
  const auto slot = [&](size_t i) {
    return diag_base + (rounds - remaining[i]) * W + i;
  };
  size_t live = W;
  std::vector<size_t> active;
  while (live > 0) {
    // Walk pressure: total outstanding steps of the walkers bucketed in a
    // block — live-walk count weighted by each walker's remaining budget
    // in this window. Ties break toward the lowest block id.
    uint32_t best = 0;
    uint64_t best_pressure = 0;
    for (uint32_t b = 0; b < pressure.size(); ++b) {
      if (pressure[b] > best_pressure) {
        best = b;
        best_pressure = pressure[b];
      }
    }
    active = std::move(buckets[best]);
    buckets[best].clear();
    pressure[best] = 0;
    obs::TraceSpan block_span(trace_, "block.drain", active.size());
    // Drain to a barrier: every bucketed walker steps until it finishes
    // the window or walks out of the block; emigrants re-bucket and wait
    // for their new block's turn.
    while (!active.empty()) {
      StepActive(active, diagnostics, slot);
      // Coordinator: account the step, drop finished walkers, re-bucket
      // emigrants (deterministic: single thread, bucket order).
      size_t out = 0;
      for (const size_t i : active) {
        if (--remaining[i] == 0) {
          --live;
          continue;
        }
        const uint32_t b = block_of(i);
        if (b == best) {
          active[out++] = i;
        } else {
          buckets[b].push_back(i);
          pressure[b] += remaining[i];
        }
      }
      active.resize(out);
    }
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
