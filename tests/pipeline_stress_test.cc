// Pipelined-engine stress: prefetch invalidation storms, forced speculation
// misses, mid-round faults, and tight budgets, checked for conservation
// invariants — no prefetched-but-uncharged and no double-charged query in
// any ledger (exact equivalence on clean schedules is
// pipeline_equivalence_test's job; here the schedules are hostile). Runs
// under ThreadSanitizer via the `runtime` ctest label, which is where the
// ticket/channel machinery earns its keep.

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "src/graph/generators.h"
#include "src/obs/metrics.h"
#include "src/runtime/concurrent_interface_cache.h"
#include "src/service/backend_pool.h"
#include "src/service/crawl_service.h"
#include "tests/fetch_test_helpers.h"

namespace mto {
namespace {

TEST(PipelineStressTest, PrefetchHintsAloneChargeNothing) {
  // The determinism argument in one test: tickets are wall-clock only.
  // Posting hints — valid, duplicate, and out-of-range — then draining must
  // leave every counter at zero and every node uncached. A node predicted
  // several times gets one ticket.
  SocialNetwork net(Grid(24, 24));
  BackendPool pool(net, FaultyBackends(3, std::nullopt), RetryPolicy{},
                   BackendSelection::kRendezvous, kFaultSeed);
  ConcurrentInterfaceCache session(pool);
  session.SetPipelineDepth(2, 3);
  obs::MetricsRegistry registry;
  session.SetObservability(&registry, nullptr);
  const NodeId n = session.num_users();
  std::vector<NodeId> hints = {1, 2, 3, 2, 1, n, n + 17, 42, 3, 42, 1};
  session.PostPrefetchHints(hints);
  EXPECT_EQ(registry.CounterValue("prefetch.issued"), 4u);  // 1, 2, 3, 42
  session.PostPrefetchHints(hints);  // re-post: cancels + re-creates
  EXPECT_EQ(registry.CounterValue("prefetch.issued"), 8u);
  EXPECT_EQ(registry.CounterValue("prefetch.stale_cancelled"), 4u);
  session.DrainPipeline();
  EXPECT_EQ(session.QueryCost(), 0u);
  EXPECT_EQ(session.BackendRequests(), 0u);
  EXPECT_EQ(session.TotalRequests(), 0u);
  for (NodeId v : {NodeId{1}, NodeId{2}, NodeId{3}, NodeId{42}}) {
    EXPECT_FALSE(session.IsCached(v));
  }
  for (size_t b = 0; b < pool.num_backends(); ++b) {
    const BackendStats stats = pool.backend_stats(b);
    EXPECT_EQ(stats.requests, 0u);
    EXPECT_EQ(stats.unique_queries, 0u);
    EXPECT_EQ(stats.budget_refusals, 0u);
  }
}

TEST(PipelineStressTest, InvalidationStormMatchesSyncTwinExactly) {
  // Hostile coordinator schedule against a sequential sync twin: every
  // round pipeline-fetches a frontier, hammers the commit-phase Query path
  // from four threads (disjoint per-thread node sets, so logical fetch
  // sequences are comparable), then posts deliberately wrong predictions —
  // stale tickets for nodes that never arrive, duplicates, out-of-range
  // ids, already-cached nodes — forcing the invalidation path every round.
  // Because outcomes are pure per-(backend, node, attempt) draws and
  // pacing is off, the final ledgers must match the twin's bit for bit.
  SocialNetwork net(Grid(24, 24));  // 576 nodes
  RetryPolicy retry;
  retry.max_attempts_per_backend = 4;
  BackendPool pipelined_pool(net, FaultyBackends(3, std::nullopt), retry,
                             BackendSelection::kRendezvous, kFaultSeed);
  ConcurrentInterfaceCache pipelined(pipelined_pool);
  pipelined.SetPipelineDepth(2, 3);
  BackendPool sync_pool(net, FaultyBackends(3, std::nullopt), retry,
                        BackendSelection::kRendezvous, kFaultSeed);
  ConcurrentInterfaceCache sync(sync_pool);

  const NodeId n = net.num_users();
  const NodeId quarter = n / 4;
  constexpr size_t kRounds = 40;
  constexpr size_t kBurst = 6;
  auto frontier_of = [&](size_t r) {
    std::vector<NodeId> frontier;
    for (size_t k = 0; k < 8; ++k) {
      frontier.push_back(static_cast<NodeId>((r * 37 + k * 61) % n));
    }
    return frontier;
  };
  auto burst_of = [&](size_t r, size_t t) {
    // Thread t draws only from its own quarter of the id space: bursts are
    // disjoint across threads, so the twin can replay them sequentially.
    std::vector<NodeId> burst;
    for (size_t k = 0; k < kBurst; ++k) {
      burst.push_back(static_cast<NodeId>((r * 53 + k * 17) % quarter +
                                          t * quarter));
    }
    return burst;
  };

  for (size_t r = 0; r < kRounds; ++r) {
    // Coordinator phase: fetch this round's uncached frontier.
    std::vector<NodeId> misses;
    for (NodeId v : frontier_of(r)) {
      if (!pipelined.IsCached(v)) misses.push_back(v);
    }
    if (!misses.empty()) pipelined.PipelinedFetch(misses);
    // Commit phase: concurrent single-node queries through the live
    // pipeline (ticket consumption, channel-joined misses, cache hits).
    std::vector<std::thread> workers;
    for (size_t t = 0; t < 4; ++t) {
      workers.emplace_back([&, t] {
        for (NodeId v : burst_of(r, t)) pipelined.Query(v);
      });
    }
    for (auto& w : workers) w.join();
    // Peek phase, sabotaged: half the hints are next round's real frontier,
    // half are garbage that never arrives — plus duplicates, cached nodes,
    // and out-of-range ids. Every round re-posts, cancelling the last
    // window's survivors (the invalidation storm).
    std::vector<NodeId> hints = frontier_of(r + 1);
    hints.resize(hints.size() / 2);
    for (size_t k = 0; k < 6; ++k) {
      hints.push_back(static_cast<NodeId>((r * 101 + k * 97 + 13) % n));
    }
    hints.push_back(hints.front());  // duplicate
    hints.push_back(n + 3);          // out of range: skipped, not an error
    if (r > 0) hints.push_back(frontier_of(r).front());  // likely cached
    pipelined.PostPrefetchHints(hints);
  }
  pipelined.DrainPipeline();

  // Sequential twin replays the same logical schedule.
  for (size_t r = 0; r < kRounds; ++r) {
    std::vector<NodeId> misses;
    for (NodeId v : frontier_of(r)) {
      if (!sync.IsCached(v)) misses.push_back(v);
    }
    if (!misses.empty()) sync.BatchQuery(misses);
    for (size_t t = 0; t < 4; ++t) {
      for (NodeId v : burst_of(r, t)) sync.Query(v);
    }
  }

  ExpectBackendConservation(pipelined_pool);
  EXPECT_EQ(pipelined.QueryCost(), sync.QueryCost());
  EXPECT_EQ(pipelined.BackendRequests(), sync.BackendRequests());
  EXPECT_EQ(pipelined_pool.FailedFetches(), sync_pool.FailedFetches());
  for (size_t b = 0; b < pipelined_pool.num_backends(); ++b) {
    SCOPED_TRACE("backend " + std::to_string(b));
    const BackendStats p = pipelined_pool.backend_stats(b);
    const BackendStats s = sync_pool.backend_stats(b);
    EXPECT_EQ(p.unique_queries, s.unique_queries);
    EXPECT_EQ(p.requests, s.requests);
    EXPECT_EQ(p.failed_requests, s.failed_requests);
    EXPECT_EQ(p.timeouts, s.timeouts);
    EXPECT_EQ(p.transient_errors, s.transient_errors);
    EXPECT_EQ(p.quota_rejections, s.quota_rejections);
    EXPECT_EQ(p.budget_refusals, s.budget_refusals);
    EXPECT_EQ(p.simulated_us, s.simulated_us);
  }
  // The storm actually stormed: faults fired and something was cached.
  uint64_t faults = 0;
  for (size_t b = 0; b < pipelined_pool.num_backends(); ++b) {
    faults += pipelined_pool.backend_stats(b).failed_requests;
  }
  EXPECT_GT(faults, 0u);
  EXPECT_GT(pipelined.QueryCost(), 0u);
}

TEST(PipelineStressTest, PipelinedCrawlUnderFaultsAndTightBudgetsConserves) {
  // Full service crawl with everything hostile at once: speculative MTO
  // stepping, four threads, depth-2 pipelining, rendezvous routing, fault
  // injection, and per-backend budgets (a finite budget voids bit-equality
  // — the documented caveat — but must never break conservation or
  // overdraw a key). This short crawl stays under its budgets;
  // FetchStressTest.PipelinedMtoCrawlUnderExhaustedBudgetsNeverOverdraws
  // runs the keys dry.
  ScenarioConfig config;
  config.dataset = "epinions_small";
  config.seed = 0x57E55;
  config.program.name = "mto";
  config.num_walkers = 8;
  config.num_threads = 4;
  config.coalesce_frontier = true;
  config.pipeline_depth = 2;
  config.strategy = BackendSelection::kRendezvous;
  config.geweke_check_every = 20;
  config.geweke_min_length = 40;
  config.max_burn_in_rounds = 100;
  config.num_samples = 12;
  config.thinning = 3;
  config.fault_seed = 0xFA17;
  config.retry.max_attempts_per_backend = 3;
  config.backends = FaultyBackends(4, 300);
  CrawlService service(config);
  const ServiceResult result = service.Run();
  ExpectBackendConservation(service.pool());
  EXPECT_LE(service.pool().QueryCost(), 4 * 300u);
  EXPECT_GT(result.total_steps, 0u);
}

}  // namespace
}  // namespace mto
