#include "src/runtime/concurrent_interface_cache.h"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

namespace mto {

ConcurrentInterfaceCache::ConcurrentInterfaceCache(RestrictedInterface& base)
    : RestrictedInterface(base.network()),
      base_(&base),
      num_flags_(num_users()) {
  cached_flags_ = std::make_unique<std::atomic<uint8_t>[]>(num_flags_);
  for (NodeId v = 0; v < num_flags_; ++v) {
    cached_flags_[v].store(base.IsCached(v) ? kCached : kUncached,
                           std::memory_order_relaxed);
  }
  // Take over latency simulation: the wrapped session is only the ledger
  // from here on; round trips are slept outside its lock (see Admit).
  SetSimulatedLatency(base.simulated_latency());
  base.SetSimulatedLatency(std::chrono::microseconds(0));
}

void ConcurrentInterfaceCache::SetFetchMode(FetchMode mode, size_t lanes) {
  fetch_mode_ = mode;
  ConfigureLanes(lanes);
}

void ConcurrentInterfaceCache::SetPipelineDepth(size_t depth, size_t lanes) {
  pipeline_depth_ = depth;
  ConfigureLanes(lanes);
}

void ConcurrentInterfaceCache::ConfigureLanes(size_t lanes) {
  DrainPipeline();
  if (fetch_mode_ != FetchMode::kAsync && pipeline_depth_ == 0) {
    channels_.reset();
    return;
  }
  const size_t count =
      std::min(kMaxFetchThreads, lanes == 0 ? kMaxFetchThreads : lanes);
  if (channels_ == nullptr || channels_->size() != count) {
    channels_ = std::make_unique<SerialChannels>(count);
    channels_->SetObservability(registry_, trace_);
  }
}

void ConcurrentInterfaceCache::SetObservability(obs::MetricsRegistry* registry,
                                                obs::TraceLog* trace) {
  registry_ = registry;
  trace_ = trace;
  if (registry == nullptr) {
    metrics_ = CacheMetrics{};
  } else {
    metrics_.hits = registry->GetGauge("cache.hits");
    metrics_.misses = registry->GetCounter("cache.misses");
    metrics_.dedupe_waits = registry->GetCounter("cache.dedupe_waits");
    metrics_.miss_batch = registry->GetHistogram("cache.miss_batch_size");
    metrics_.prefetch_issued = registry->GetCounter("prefetch.issued");
    metrics_.prefetch_consumed = registry->GetCounter("prefetch.consumed");
    metrics_.prefetch_mispredicted =
        registry->GetCounter("prefetch.mispredicted");
    metrics_.prefetch_stale = registry->GetCounter("prefetch.stale_cancelled");
  }
  if (channels_ != nullptr) channels_->SetObservability(registry, trace);
}

void ConcurrentInterfaceCache::PublishMetrics() {
  if (metrics_.hits != nullptr && metrics_.misses != nullptr) {
    metrics_.hits->Set(
        static_cast<int64_t>(TotalRequests() - metrics_.misses->Value()));
  }
}

void ConcurrentInterfaceCache::CancelTicket(PrefetchTicket& ticket) {
  {
    std::lock_guard<std::mutex> lock(ticket.mutex);
    ticket.cancelled = true;
  }
  ticket.cv.notify_all();
}

std::optional<std::vector<uint8_t>> ConcurrentInterfaceCache::LaneFetch(
    std::span<const NodeId> misses, bool inline_wire, bool join) {
  std::optional<DeferredFetch> deferred;
  SerialChannels::Marker posted;
  const auto rtt = simulated_latency();
  uint64_t wire_trips = 0;
  {
    std::lock_guard lock(base_mutex_);
    // The plan runs at normal time, in miss order — the exact state
    // mutations (routing counters, cache marks, cost) the sync path would
    // make. Only the ledger/latency tail is deferred to the lanes.
    deferred = base_->PlanFetchMisses(misses);
    if (!deferred) return std::nullopt;
    // Speculation validation: a consumed ticket prepays one round trip on
    // its lane iff it predicted the node's actual first-request backend; a
    // mispredicted (or never-requested) node's ticket is cancelled so the
    // wrong lane frees early. Both outcomes are wall-clock-only.
    std::unordered_map<uint32_t, uint32_t> prepaid;
    for (size_t i = 0; i < misses.size() && !tickets_.empty(); ++i) {
      auto it = tickets_.find(misses[i]);
      if (it == tickets_.end()) continue;
      const std::shared_ptr<PrefetchTicket> ticket = std::move(it->second);
      tickets_.erase(it);
      ObsAdd(metrics_.prefetch_consumed);
      const uint32_t actual = i < deferred->first_backend.size()
                                  ? deferred->first_backend[i]
                                  : UINT32_MAX;
      if (actual != UINT32_MAX && ticket->backend == actual) {
        ++prepaid[actual];
      } else {
        ObsAdd(metrics_.prefetch_mispredicted);
        CancelTicket(*ticket);
      }
    }
    // Posting under the ledger lock keeps every lane's tasks in plan
    // order, the order the sync path applies the same ledger ops in.
    for (size_t t = 0; t < deferred->apply_tasks.size(); ++t) {
      const uint32_t b = deferred->task_backend[t];
      const uint32_t trips = deferred->task_trips[t];
      uint32_t pre = 0;
      auto it = prepaid.find(b);
      if (it != prepaid.end()) {
        pre = std::min(it->second, trips);
        it->second -= pre;
      }
      // Lane busy time is conserved: trips a matching ticket already slept
      // on this lane are not slept again, and an inline-wire caller sleeps
      // its trips on its own thread.
      uint32_t lane_trips = trips - pre;
      if (inline_wire) {
        wire_trips += lane_trips;
        lane_trips = 0;
      }
      channels_->Post(b % channels_->size(),
                      [task = std::move(deferred->apply_tasks[t]), lane_trips,
                       rtt] {
                        task();  // pure ledger math: the plan has no latency
                        if (rtt.count() > 0 && lane_trips > 0) {
                          std::this_thread::sleep_for(rtt * lane_trips);
                        }
                      });
    }
    if (join) posted = channels_->Mark();
  }
  if (rtt.count() > 0 && wire_trips > 0) {
    std::this_thread::sleep_for(rtt * static_cast<int64_t>(wire_trips));
  }
  // The lag-0 join: everything posted up to this fetch's own tasks has run.
  if (join) channels_->WaitUntil(posted);
  return std::move(deferred->fetched);
}

void ConcurrentInterfaceCache::DrainPipeline() {
  if (channels_ == nullptr) return;
  {
    std::lock_guard lock(base_mutex_);
    ObsAdd(metrics_.prefetch_stale, tickets_.size());
    for (auto& entry : tickets_) CancelTicket(*entry.second);
    tickets_.clear();
  }
  round_marks_.clear();
  channels_->Drain();
}

void ConcurrentInterfaceCache::PipelinedFetch(
    std::span<const NodeId> frontier) {
  for (NodeId v : frontier) {
    if (v >= num_users()) {
      throw std::invalid_argument("PipelinedFetch: unknown user id");
    }
  }
  if (!PipelineActive()) {
    throw std::logic_error("PipelinedFetch: pipeline inactive");
  }
  // Mirror BatchQuery's request accounting: one request per frontier slot.
  total_requests_.Add(frontier.size());
  if (frontier.empty()) return;
  // Every frontier slot goes to the planner: all misses by construction.
  ObsAdd(metrics_.misses, frontier.size());
  ObsRecord(metrics_.miss_batch, frontier.size());

  const auto fetched =
      LaneFetch(frontier, /*inline_wire=*/false, /*join=*/false);
  if (!fetched) {
    // No plannable backend model: sync-identical inline fallback (the
    // frontier is distinct and was uncached when the coordinator built it).
    const std::vector<uint8_t> ok = SyncFetch(frontier);
    for (size_t i = 0; i < frontier.size(); ++i) {
      if (ok[i] != 0) {
        cached_flags_[frontier[i]].store(kCached, std::memory_order_release);
      }
    }
    return;
  }
  // Publish planned outcomes: the coordinator is the only query-path thread
  // here (CrawlScheduler fetches the frontier between pool regions, while
  // no walker runs), so the claim machinery is unnecessary — set the flags
  // directly. Commits may now read these nodes while their round trips are
  // still in flight on the lanes.
  for (size_t i = 0; i < frontier.size(); ++i) {
    if ((*fetched)[i] != 0) {
      cached_flags_[frontier[i]].store(kCached, std::memory_order_release);
    }
  }
  // The lag-k join: at most pipeline_depth_ rounds of posted work may stay
  // in flight; wait out markers older than that. This bounds run-ahead and
  // keeps "steps/sec limited by aggregate backend bandwidth" honest — every
  // trip still occupies its lane for one RTT before the crawl can finish.
  round_marks_.push_back(channels_->Mark());
  while (round_marks_.size() > pipeline_depth_) {
    channels_->WaitUntil(round_marks_.front());
    round_marks_.pop_front();
  }
}

void ConcurrentInterfaceCache::PostPrefetchHints(
    std::span<const NodeId> predicted) {
  if (!PipelineActive()) return;
  struct Route {
    std::shared_ptr<PrefetchTicket> ticket;
  };
  std::vector<Route> routes;
  {
    std::lock_guard lock(base_mutex_);
    // Deterministic stale-invalidation point: whatever the previous window
    // predicted and this round did not consume is stale now — cancel it.
    // The stale set is exactly (predicted \ consumed), a pure function of
    // the crawl state, never of timing.
    ObsAdd(metrics_.prefetch_stale, tickets_.size());
    for (auto& entry : tickets_) CancelTicket(*entry.second);
    tickets_.clear();
    std::vector<NodeId> fresh;
    for (NodeId v : predicted) {
      if (v >= num_users()) continue;  // hints are best-effort, not errors
      if (HitCached(v)) continue;
      if (std::find(fresh.begin(), fresh.end(), v) != fresh.end()) continue;
      fresh.push_back(v);
    }
    if (fresh.empty()) return;
    const auto plan = base_->PlanPrefetch(fresh);
    if (!plan) return;  // no pure routing preview: skip prefetching
    for (size_t i = 0; i < fresh.size(); ++i) {
      if ((*plan)[i] == UINT32_MAX) continue;  // no backend would accept it
      auto ticket = std::make_shared<PrefetchTicket>();
      ticket->backend = (*plan)[i];
      tickets_.emplace(fresh[i], ticket);
      routes.push_back({std::move(ticket)});
      ObsAdd(metrics_.prefetch_issued);
    }
  }
  // Tickets are wall-clock-only: each live one occupies its predicted
  // backend's lane for one RTT, and touches no session state — which is
  // the entire bitwise-equality argument. One lane task per hints call
  // sleeps the whole batch at once (live-count x RTT): per-ticket timed
  // waits oversleep by a scheduler quantum each, which at hundreds of
  // tickets per round dwarfs the RTTs being modelled. Cancellations land
  // before the batch runs in steady state (the coordinator runs at most
  // pipeline_depth rounds ahead of the lanes); a cancel arriving mid-sleep
  // costs modelling accuracy only, never correctness.
  const auto rtt = simulated_latency();
  std::vector<std::vector<std::shared_ptr<PrefetchTicket>>> per_lane(
      channels_->size());
  for (auto& route : routes) {
    per_lane[route.ticket->backend % channels_->size()].push_back(
        std::move(route.ticket));
  }
  for (size_t lane = 0; lane < per_lane.size(); ++lane) {
    if (per_lane[lane].empty()) continue;
    channels_->Post(lane, [batch = std::move(per_lane[lane]), rtt] {
                      if (rtt.count() <= 0) return;
                      int64_t live = 0;
                      for (const auto& ticket : batch) {
                        std::lock_guard<std::mutex> lock(ticket->mutex);
                        if (!ticket->cancelled) ++live;
                      }
                      if (live > 0) std::this_thread::sleep_for(rtt * live);
                    });
  }
}

std::vector<uint8_t> ConcurrentInterfaceCache::SyncFetch(
    std::span<const NodeId> misses) {
  uint64_t trips = 0;
  std::vector<uint8_t> fetched;
  {
    std::lock_guard lock(base_mutex_);
    const uint64_t before = base_->BackendRequests();
    fetched = base_->FetchBatch(misses);
    trips = base_->BackendRequests() - before;
  }
  if (simulated_latency().count() > 0) {
    std::this_thread::sleep_for(simulated_latency() *
                                static_cast<int64_t>(trips));
  }
  return fetched;
}

bool ConcurrentInterfaceCache::IsCached(NodeId v) const {
  return v < num_users() && HitCached(v);
}

std::optional<uint32_t> ConcurrentInterfaceCache::CachedDegree(
    NodeId v) const {
  if (!IsCached(v)) return std::nullopt;
  return network().graph().Degree(v);
}

uint64_t ConcurrentInterfaceCache::QueryCost() const {
  std::lock_guard lock(base_mutex_);
  return base_->QueryCost();
}

uint64_t ConcurrentInterfaceCache::BackendRequests() const {
  std::lock_guard lock(base_mutex_);
  return base_->BackendRequests();
}

void ConcurrentInterfaceCache::SetBudget(std::optional<uint64_t> budget) {
  std::lock_guard lock(base_mutex_);
  base_->SetBudget(budget);
}

void ConcurrentInterfaceCache::SetMaxBatchSize(size_t max_batch_size) {
  std::lock_guard lock(base_mutex_);
  base_->SetMaxBatchSize(max_batch_size);
}

size_t ConcurrentInterfaceCache::max_batch_size() const {
  std::lock_guard lock(base_mutex_);
  return base_->max_batch_size();
}

SessionSnapshot ConcurrentInterfaceCache::SnapshotSession() const {
  SessionSnapshot snapshot;
  {
    std::lock_guard lock(base_mutex_);
    snapshot = base_->SnapshotSession();
  }
  snapshot.total_requests = TotalRequests();
  return snapshot;
}

void ConcurrentInterfaceCache::RestoreSession(
    const SessionSnapshot& snapshot) {
  DrainPipeline();  // ledgers must be quiescent before rewriting state
  {
    std::lock_guard lock(base_mutex_);
    base_->RestoreSession(snapshot);
  }
  const NodeId n = num_users();
  for (NodeId v = 0; v < n; ++v) {
    cached_flags_[v].store(base_->IsCached(v) ? kCached : kUncached,
                           std::memory_order_relaxed);
  }
  total_requests_.Set(snapshot.total_requests);
}

void ConcurrentInterfaceCache::Reset() {
  DrainPipeline();
  base_->Reset();
  const NodeId n = num_users();
  for (NodeId v = 0; v < n; ++v) {
    cached_flags_[v].store(kUncached, std::memory_order_relaxed);
  }
  total_requests_.Set(0);
}

bool ConcurrentInterfaceCache::ClaimFetch(NodeId v) {
  std::atomic<uint8_t>& flag = cached_flags_[v];
  uint8_t state = flag.load(std::memory_order_acquire);
  bool counted_wait = false;
  while (true) {
    if (state == kCached) return false;
    if (state == kUncached) {
      if (flag.compare_exchange_weak(state, kInFlight,
                                     std::memory_order_acquire)) {
        return true;  // we own the fetch
      }
      continue;  // lost a race; `state` holds what won
    }
    if (!counted_wait) {
      // One dedupe wait per episode, not per wake-up.
      ObsAdd(metrics_.dedupe_waits);
      counted_wait = true;
    }
    // Another walker is fetching v; share its response. Registering before
    // the re-check pairs with ResolveFetch's store-then-read (all seq_cst):
    // either the re-check sees the outcome, or the owner sees a waiter and
    // wakes the flag.
    claim_waiters_.fetch_add(1);
    if (flag.load() == kInFlight) {
      flag.wait(kInFlight, std::memory_order_acquire);
    }
    claim_waiters_.fetch_sub(1, std::memory_order_release);
    state = flag.load(std::memory_order_acquire);
  }
}

void ConcurrentInterfaceCache::ResolveFetch(NodeId v, bool fetched) {
  std::atomic<uint8_t>& flag = cached_flags_[v];
  flag.store(fetched ? kCached : kUncached);  // seq_cst: see ClaimFetch
  if (claim_waiters_.load() != 0) flag.notify_all();
}

bool ConcurrentInterfaceCache::Admit(NodeId v) {
  if (!ClaimFetch(v)) return true;  // cached while we waited (a hit, derived)
  ObsAdd(metrics_.misses);  // we own the fetch, whatever its outcome
  if (fetch_mode_ == FetchMode::kAsync || PipelineActive()) {
    // Through the lanes. A single miss pays its wire time on this thread,
    // as the sync path would: concurrent walkers' misses overlap, and a
    // pipelined demand miss never waits out the lanes' speculative
    // backlog. Async joins its ledger task, so the ledgers are current on
    // return; the pipeline leaves it to the lag-k join.
    const NodeId miss[1] = {v};
    if (auto fetched = LaneFetch(miss, /*inline_wire=*/true,
                                 /*join=*/!PipelineActive())) {
      const bool ok = (*fetched)[0] != 0;
      ResolveFetch(v, ok);
      return ok;
    }
  }
  bool ok;
  {
    // Ledger work only (cost, budget, backend-trip count): QueryRef has
    // Query's accounting and builds no response.
    std::lock_guard lock(base_mutex_);
    ok = base_->QueryRef(v).has_value();
  }
  // Pay the round trip outside every lock; walkers racing to `v` wait on
  // its flag until ResolveFetch, i.e. until the response "arrived".
  if (ok && simulated_latency().count() > 0) {
    std::this_thread::sleep_for(simulated_latency());
  }
  ResolveFetch(v, ok);
  return ok;
}

std::optional<QueryResult> ConcurrentInterfaceCache::Query(NodeId v) {
  if (v >= num_flags_) {
    throw std::invalid_argument("Query: unknown user id");
  }
  total_requests_.Add();
  // Lock-free hit path: the network is immutable, so a cached flag is
  // enough to materialize the response locally. Hits are deliberately not
  // counted here — PublishMetrics derives them from total_requests_.
  if (!HitCached(v) && !Admit(v)) return std::nullopt;
  return MakeResult(v);
}

std::optional<QueryView> ConcurrentInterfaceCache::QueryRefMiss(NodeId v) {
  if (v >= num_flags_) {
    throw std::invalid_argument("QueryRef: unknown user id");
  }
  total_requests_.Add();
  // Admit re-checks the flag: another walker may have cached `v` since the
  // inline test.
  if (!Admit(v)) return std::nullopt;
  return MakeView(v);
}

std::vector<std::optional<QueryResult>> ConcurrentInterfaceCache::BatchQuery(
    std::span<const NodeId> ids) {
  for (NodeId v : ids) {
    if (v >= num_flags_) {
      throw std::invalid_argument("BatchQuery: unknown user id");
    }
  }
  total_requests_.Add(ids.size());

  // Claim every distinct uncached id we can without blocking. Ids already
  // being fetched by another walker are admitted afterwards, once our own
  // claims are resolved — never while holding claims, so two overlapping
  // BatchQuery calls cannot deadlock waiting on each other. `owned` maps
  // each claimed or busy id to whether it ended up fetched; a repeat of it
  // within this batch is answered from there.
  std::vector<NodeId> claimed;
  std::vector<NodeId> busy;
  std::unordered_map<NodeId, bool> owned;
  for (NodeId v : ids) {
    if (HitCached(v) || owned.count(v) != 0) continue;
    uint8_t state = kUncached;
    if (cached_flags_[v].compare_exchange_strong(state, kInFlight,
                                                 std::memory_order_acquire)) {
      claimed.push_back(v);
    } else if (state == kInFlight) {
      busy.push_back(v);
    } else {
      continue;  // cached since the first look
    }
    owned.emplace(v, false);
  }
  // Claims are misses, busy ids count theirs in Admit, and every other
  // request was answered from cache (hits, derived at PublishMetrics time).
  ObsAdd(metrics_.misses, claimed.size());
  ObsRecord(metrics_.miss_batch, claimed.size());

  if (!claimed.empty()) {
    // Async: one task per backend touched, each applying its own ledger's
    // ops and sleeping its round trips on that backend's lane, so trips
    // served by different lanes overlap in real time and this join costs
    // the max over lanes instead of the sum (DESIGN.md §9).
    std::optional<std::vector<uint8_t>> ok;
    if (fetch_mode_ == FetchMode::kAsync) {
      ok = LaneFetch(claimed, /*inline_wire=*/false, /*join=*/true);
    }
    if (!ok) ok = SyncFetch(claimed);
    for (size_t i = 0; i < claimed.size(); ++i) {
      ResolveFetch(claimed[i], (*ok)[i] != 0);
      owned[claimed[i]] = (*ok)[i] != 0;
    }
  }
  // Waits out the other walker's fetch (or re-fetches on its refusal).
  for (NodeId v : busy) owned[v] = Admit(v);

  // Each response is materialized once, straight into its slot. Ids not in
  // `owned` were cached when the claim loop saw them.
  std::vector<std::optional<QueryResult>> results(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    auto it = owned.find(ids[i]);
    if (it == owned.end() || it->second) results[i] = MakeResult(ids[i]);
  }
  return results;
}

}  // namespace mto
