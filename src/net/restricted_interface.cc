#include "src/net/restricted_interface.h"

#include <stdexcept>
#include <thread>
#include <unordered_set>

namespace mto {

const char* FetchModeName(FetchMode mode) {
  switch (mode) {
    case FetchMode::kSync: return "sync";
    case FetchMode::kAsync: return "async";
  }
  return "?";
}

RestrictedInterface::RestrictedInterface(const SocialNetwork& network)
    : network_(&network), cached_(network.num_users(), false) {}

std::optional<DeferredFetch> RestrictedInterface::PlanFetchMisses(
    std::span<const NodeId> misses) {
  // The paper's one-perfect-backend model has a single serial channel:
  // there is nothing to overlap, so the sync path is already optimal.
  (void)misses;
  return std::nullopt;
}

std::optional<std::vector<uint32_t>> RestrictedInterface::PlanPrefetch(
    std::span<const NodeId> ids) const {
  // One perfect backend: no per-node routing to preview, and nothing a
  // prefetch could overlap. Callers skip prefetching.
  (void)ids;
  return std::nullopt;
}

QueryResult RestrictedInterface::MakeResult(NodeId v) const {
  QueryResult r;
  r.user = v;
  r.profile = network_->profile(v);
  auto nbrs = network_->graph().Neighbors(v);
  r.neighbors.assign(nbrs.begin(), nbrs.end());
  return r;
}

void RestrictedInterface::SimulateRoundTrip() {
  ++backend_requests_;
  if (simulated_latency_.count() > 0) {
    std::this_thread::sleep_for(simulated_latency_);
  }
}

void RestrictedInterface::FetchMisses(std::span<const NodeId> misses) {
  // One round trip serves up to max_batch_size_ admitted misses; the trip
  // is paid when its first miss is admitted.
  size_t misses_in_trip = 0;
  for (NodeId v : misses) {
    if (BudgetExhausted()) return;
    if (misses_in_trip == 0) SimulateRoundTrip();
    misses_in_trip = (misses_in_trip + 1) % max_batch_size_;
    MarkFetched(v);
  }
}

std::optional<QueryView> RestrictedInterface::QueryRef(NodeId v) {
  if (v >= network_->num_users()) {
    throw std::invalid_argument("QueryRef: unknown user id");
  }
  ++total_requests_;
  if (!cached_[v]) {
    const NodeId miss[1] = {v};
    FetchMisses(miss);
    if (!cached_[v]) return std::nullopt;
  }
  return MakeView(v);
}

std::optional<QueryResult> RestrictedInterface::Query(NodeId v) {
  if (!QueryRef(v)) return std::nullopt;
  return MakeResult(v);
}

std::vector<uint8_t> RestrictedInterface::FetchBatch(
    std::span<const NodeId> ids) {
  for (NodeId v : ids) {
    if (v >= network_->num_users()) {
      throw std::invalid_argument("FetchBatch: unknown user id");
    }
  }
  // Distinct cache-missing ids in first-appearance order; duplicates and
  // hits are answered from cache without touching the backend.
  std::vector<NodeId> misses;
  {
    std::unordered_set<NodeId> seen;
    for (NodeId v : ids) {
      ++total_requests_;
      if (!cached_[v] && seen.insert(v).second) misses.push_back(v);
    }
  }
  if (!misses.empty()) FetchMisses(misses);
  std::vector<uint8_t> cached(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) cached[i] = cached_[ids[i]];
  return cached;
}

std::vector<std::optional<QueryResult>> RestrictedInterface::BatchQuery(
    std::span<const NodeId> ids) {
  const std::vector<uint8_t> cached = FetchBatch(ids);
  std::vector<std::optional<QueryResult>> results(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    if (cached[i] != 0) results[i] = MakeResult(ids[i]);
  }
  return results;
}

std::optional<uint32_t> RestrictedInterface::CachedDegree(NodeId v) const {
  if (!IsCached(v)) return std::nullopt;
  return network_->graph().Degree(v);
}

std::optional<QueryView> RestrictedInterface::RandomUser(Rng& rng) {
  return QueryRef(static_cast<NodeId>(rng.UniformInt(network_->num_users())));
}

void RestrictedInterface::SetMaxBatchSize(size_t max_batch_size) {
  if (max_batch_size == 0) {
    throw std::invalid_argument("SetMaxBatchSize: batch size must be >= 1");
  }
  max_batch_size_ = max_batch_size;
}

SessionSnapshot RestrictedInterface::SnapshotSession() const {
  SessionSnapshot snapshot;
  for (NodeId v = 0; v < cached_.size(); ++v) {
    if (cached_[v]) snapshot.cached_ids.push_back(v);
  }
  snapshot.unique_queries = unique_queries_;
  snapshot.total_requests = total_requests_;
  snapshot.backend_requests = backend_requests_;
  return snapshot;
}

void RestrictedInterface::RestoreSession(const SessionSnapshot& snapshot) {
  for (NodeId v : snapshot.cached_ids) {
    if (v >= network_->num_users()) {
      throw std::invalid_argument("RestoreSession: unknown user id");
    }
  }
  cached_.assign(network_->num_users(), false);
  for (NodeId v : snapshot.cached_ids) cached_[v] = true;
  unique_queries_ = snapshot.unique_queries;
  total_requests_ = snapshot.total_requests;
  backend_requests_ = snapshot.backend_requests;
}

void RestrictedInterface::Reset() {
  cached_.assign(network_->num_users(), false);
  unique_queries_ = 0;
  total_requests_ = 0;
  backend_requests_ = 0;
}

}  // namespace mto
