#include "src/runtime/concurrent_interface_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <latch>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/graph/builder.h"
#include "src/graph/generators.h"
#include "src/net/social_network.h"
#include "src/obs/metrics.h"
#include "src/runtime/crawl_scheduler.h"
#include "src/service/backend_pool.h"
#include "src/walk/srw.h"

namespace mto {
namespace {

TEST(ConcurrentInterfaceCacheTest, SingleThreadSemanticsMatchBase) {
  SocialNetwork net(Barbell(4));
  RestrictedInterface plain(net);
  RestrictedInterface base(net);
  ConcurrentInterfaceCache cache(base);

  for (NodeId v : {0u, 1u, 0u, 5u, 1u}) {
    auto expected = plain.Query(v);
    auto actual = cache.Query(v);
    ASSERT_TRUE(actual.has_value());
    EXPECT_EQ(actual->user, expected->user);
    EXPECT_EQ(actual->neighbors, expected->neighbors);
  }
  EXPECT_EQ(cache.QueryCost(), plain.QueryCost());
  EXPECT_EQ(cache.TotalRequests(), plain.TotalRequests());
  EXPECT_TRUE(cache.IsCached(0));
  EXPECT_FALSE(cache.IsCached(7));
  EXPECT_EQ(*cache.CachedDegree(5), net.graph().Degree(5));
  EXPECT_FALSE(cache.CachedDegree(7).has_value());
}

TEST(ConcurrentInterfaceCacheTest, OutOfRangeIdsAreNotCachedAndThrow) {
  SocialNetwork net(Cycle(6));
  RestrictedInterface base(net);
  ConcurrentInterfaceCache cache(base);
  EXPECT_FALSE(cache.IsCached(1000000));
  EXPECT_FALSE(cache.CachedDegree(1000000).has_value());
  EXPECT_THROW(cache.Query(6), std::invalid_argument);
  // QueryRef's bounds check sits in its inline hit path.
  EXPECT_THROW(cache.QueryRef(6), std::invalid_argument);
  EXPECT_THROW(cache.QueryRef(UINT32_MAX), std::invalid_argument);
  EXPECT_EQ(cache.TotalRequests(), 0u);
}

TEST(ConcurrentInterfaceCacheTest, ImportsWarmBaseCache) {
  SocialNetwork net(Cycle(6));
  RestrictedInterface base(net);
  base.Query(3);
  ConcurrentInterfaceCache cache(base);
  EXPECT_TRUE(cache.IsCached(3));
  cache.Query(3);
  EXPECT_EQ(cache.QueryCost(), 1u);  // no re-pay for the warm node
}

TEST(ConcurrentInterfaceCacheTest, TakesOverLatencySimulation) {
  SocialNetwork net(Cycle(6));
  RestrictedInterface base(net);
  base.SetSimulatedLatency(std::chrono::microseconds(100));
  ConcurrentInterfaceCache cache(base);
  EXPECT_EQ(base.simulated_latency().count(), 0);
  EXPECT_EQ(cache.simulated_latency().count(), 100);
}

TEST(ConcurrentInterfaceCacheTest, OneUniqueQueryPerNodeUnderContention) {
  // 8 threads race over the same node set, with enough simulated latency
  // that fetches of one node genuinely overlap: the in-flight table must
  // collapse every race to a single paid query.
  SocialNetwork net(Complete(24));
  RestrictedInterface base(net);
  base.SetSimulatedLatency(std::chrono::microseconds(300));
  ConcurrentInterfaceCache cache(base);

  constexpr size_t kThreads = 8;
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &failures, &net] {
      for (NodeId v = 0; v < net.num_users(); ++v) {
        auto r = cache.Query(v);
        if (!r || r->user != v) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(cache.QueryCost(), net.num_users());
  EXPECT_EQ(cache.TotalRequests(), kThreads * net.num_users());
}

TEST(ConcurrentInterfaceCacheTest, RefusedOwnerHandsItsClaimOn) {
  // Every fetch of the node is refused: each owner stores "uncached" and
  // wakes the walkers waiting on the flag, and the next one claims it in
  // turn. Nobody hangs, and every claim is one refused fetch.
  SocialNetwork net(Cycle(8));
  std::vector<BackendConfig> backends(1);
  backends[0].timeout_rate = 1.0;  // the only key always times out
  BackendPool pool(net, backends, RetryPolicy{}, BackendSelection::kSharded,
                   /*fault_seed=*/1);
  ConcurrentInterfaceCache cache(pool);
  obs::MetricsRegistry registry;
  cache.SetObservability(&registry, nullptr);

  constexpr size_t kThreads = 8;
  constexpr size_t kQueries = 50;
  std::atomic<size_t> answered{0};
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      start.arrive_and_wait();
      for (size_t i = 0; i < kQueries; ++i) {
        if (cache.Query(3).has_value()) answered.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(answered.load(), 0u);
  const uint64_t claims = registry.CounterValue("cache.misses");
  EXPECT_EQ(claims, kThreads * kQueries);  // no query found it cached
  EXPECT_EQ(pool.FailedFetches(), claims);
  EXPECT_FALSE(cache.IsCached(3));
  EXPECT_EQ(cache.QueryCost(), 0u);
}

TEST(ConcurrentInterfaceCacheTest, MixedCallersRaceForTheSameIds) {
  // Query, QueryRef and BatchQuery callers walk the same ids at once while
  // every round trip takes 200 us, so claims collide: walkers wait on each
  // other's flags, BatchQuery finds ids busy, and still every id is paid
  // for once and every request is a hit or a miss.
  SocialNetwork net(Complete(48));
  RestrictedInterface base(net);
  base.SetSimulatedLatency(std::chrono::microseconds(200));
  base.SetMaxBatchSize(4);
  ConcurrentInterfaceCache cache(base);
  obs::MetricsRegistry registry;
  cache.SetObservability(&registry, nullptr);

  constexpr size_t kThreads = 6;
  const NodeId n = net.num_users();
  std::atomic<size_t> wrong{0};
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      // Every caller starts at a different id but covers all of them.
      const NodeId offset = static_cast<NodeId>(t % 2) * (n / 2);
      for (NodeId k = 0; k < n; k += 6) {
        std::vector<NodeId> ids;
        for (NodeId j = k; j < k + 6; ++j) ids.push_back((j + offset) % n);
        switch (t % 3) {
          case 0:
            for (NodeId v : ids) {
              auto r = cache.Query(v);
              if (!r || r->user != v || r->degree() != n - 1) wrong++;
            }
            break;
          case 1:
            for (NodeId v : ids) {
              auto r = cache.QueryRef(v);
              if (!r || r->user != v || r->degree() != n - 1) wrong++;
            }
            break;
          default: {
            ids.push_back(ids.front());  // a repeat within the batch
            const auto results = cache.BatchQuery(ids);
            for (size_t i = 0; i < ids.size(); ++i) {
              if (!results[i] || results[i]->user != ids[i]) wrong++;
            }
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(cache.QueryCost(), n);
  cache.PublishMetrics();
  const auto hits = static_cast<uint64_t>(registry.GaugeValue("cache.hits"));
  EXPECT_EQ(hits + registry.CounterValue("cache.misses"),
            cache.TotalRequests());
  EXPECT_GT(registry.CounterValue("cache.dedupe_waits"), 0u);
}

TEST(ConcurrentInterfaceCacheTest, BatchQueryDedupesAcrossRacingBatches) {
  SocialNetwork net(Complete(32));
  RestrictedInterface base(net);
  base.SetSimulatedLatency(std::chrono::microseconds(200));
  base.SetMaxBatchSize(8);
  ConcurrentInterfaceCache cache(base);

  // Two overlapping id ranges fetched from two threads simultaneously:
  // cost must equal the union, each id answered in place.
  std::vector<NodeId> first, second;
  for (NodeId v = 0; v < 24; ++v) first.push_back(v);
  for (NodeId v = 8; v < 32; ++v) second.push_back(v);
  std::atomic<size_t> failures{0};
  auto fetch = [&cache, &failures](const std::vector<NodeId>& ids) {
    auto results = cache.BatchQuery(ids);
    for (size_t i = 0; i < ids.size(); ++i) {
      if (!results[i] || results[i]->user != ids[i]) failures.fetch_add(1);
    }
  };
  std::thread a(fetch, first), b(fetch, second);
  a.join();
  b.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(cache.QueryCost(), 32u);
}

TEST(ConcurrentInterfaceCacheTest, BudgetEnforcedExactlyAcrossThreads) {
  SocialNetwork net(Complete(64));
  RestrictedInterface base(net);
  ConcurrentInterfaceCache cache(base);
  constexpr uint64_t kBudget = 40;
  cache.SetBudget(kBudget);

  constexpr size_t kThreads = 8;
  std::atomic<uint64_t> granted{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    // Disjoint id ranges: every successful query is a unique paid fetch.
    threads.emplace_back([&cache, &granted, t] {
      for (NodeId v = static_cast<NodeId>(t * 8);
           v < static_cast<NodeId>(t * 8 + 8); ++v) {
        if (cache.Query(v)) granted.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(cache.QueryCost(), kBudget);
  EXPECT_EQ(granted.load(), kBudget);
  // Cached nodes still answer after exhaustion; new nodes do not.
  uint64_t hits = 0;
  for (NodeId v = 0; v < 64; ++v) {
    if (cache.IsCached(v)) {
      EXPECT_TRUE(cache.Query(v).has_value());
      ++hits;
    }
  }
  EXPECT_EQ(hits, kBudget);
  EXPECT_EQ(cache.QueryCost(), kBudget);
}

TEST(ConcurrentInterfaceCacheTest, BatchQueryEmptyBatchIsFree) {
  SocialNetwork net(Cycle(8));
  RestrictedInterface base(net);
  ConcurrentInterfaceCache cache(base);
  std::vector<NodeId> ids;
  EXPECT_TRUE(cache.BatchQuery(ids).empty());
  EXPECT_EQ(cache.QueryCost(), 0u);
  EXPECT_EQ(cache.TotalRequests(), 0u);
}

TEST(ConcurrentInterfaceCacheTest, BatchQueryDuplicateIdsCostOne) {
  SocialNetwork net(Cycle(8));
  RestrictedInterface base(net);
  ConcurrentInterfaceCache cache(base);
  std::vector<NodeId> ids = {5, 5, 5, 2, 5};
  auto results = cache.BatchQuery(ids);
  ASSERT_EQ(results.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(results[i].has_value());
    EXPECT_EQ(results[i]->user, ids[i]);
  }
  EXPECT_EQ(cache.QueryCost(), 2u);
  EXPECT_EQ(cache.TotalRequests(), 5u);
}

TEST(ConcurrentInterfaceCacheTest, BatchQueryBudgetRunsOutMidChunk) {
  SocialNetwork net(Cycle(8));
  RestrictedInterface base(net);
  base.SetMaxBatchSize(4);
  ConcurrentInterfaceCache cache(base);
  cache.SetBudget(2);
  std::vector<NodeId> ids = {0, 1, 2, 3};
  auto results = cache.BatchQuery(ids);
  EXPECT_TRUE(results[0].has_value());
  EXPECT_TRUE(results[1].has_value());
  EXPECT_FALSE(results[2].has_value());
  EXPECT_FALSE(results[3].has_value());
  EXPECT_EQ(cache.QueryCost(), 2u);
}

TEST(ConcurrentInterfaceCacheTest, QueryRefHitPathIsLockFreeAndCounted) {
  SocialNetwork net(Cycle(8));
  RestrictedInterface base(net);
  ConcurrentInterfaceCache cache(base);
  auto miss = cache.QueryRef(3);  // miss goes through the full machinery
  ASSERT_TRUE(miss.has_value());
  EXPECT_EQ(cache.QueryCost(), 1u);
  auto hit = cache.QueryRef(3);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->degree(), net.graph().Degree(3));
  EXPECT_EQ(cache.QueryCost(), 1u);
  EXPECT_EQ(cache.TotalRequests(), 2u);
}

TEST(ConcurrentInterfaceCacheTest, SessionSnapshotRoundTripsThroughWrapper) {
  SocialNetwork net(Cycle(8));
  RestrictedInterface base(net);
  ConcurrentInterfaceCache cache(base);
  cache.Query(1);
  cache.Query(1);  // wrapper-level hit the base never sees
  cache.Query(4);
  const SessionSnapshot snapshot = cache.SnapshotSession();
  EXPECT_EQ(snapshot.cached_ids, (std::vector<NodeId>{1, 4}));
  EXPECT_EQ(snapshot.total_requests, 3u);  // wrapper counter, not base's

  RestrictedInterface other_base(net);
  ConcurrentInterfaceCache other(other_base);
  other.RestoreSession(snapshot);
  EXPECT_TRUE(other.IsCached(1));
  EXPECT_TRUE(other.IsCached(4));
  EXPECT_FALSE(other.IsCached(0));
  EXPECT_EQ(other.QueryCost(), 2u);
  EXPECT_EQ(other.TotalRequests(), 3u);
  // Restored hits are answered locally without new cost.
  EXPECT_TRUE(other.Query(1).has_value());
  EXPECT_EQ(other.QueryCost(), 2u);
}

TEST(ConcurrentInterfaceCacheTest, ResetClearsWrapperAndBase) {
  SocialNetwork net(Cycle(8));
  RestrictedInterface base(net);
  ConcurrentInterfaceCache cache(base);
  cache.Query(1);
  cache.Query(2);
  cache.Reset();
  EXPECT_EQ(cache.QueryCost(), 0u);
  EXPECT_EQ(cache.TotalRequests(), 0u);
  EXPECT_FALSE(cache.IsCached(1));
  EXPECT_FALSE(base.IsCached(1));
}

/// A plannable session with one backend per node parity: every miss is
/// fetched, its apply task runs on lane `v % 2`, and node 0's apply task
/// throws — the failure an async caller must see.
class TwoLanePlanner final : public RestrictedInterface {
 public:
  using RestrictedInterface::RestrictedInterface;

  std::optional<DeferredFetch> PlanFetchMisses(
      std::span<const NodeId> misses) override {
    DeferredFetch out;
    for (NodeId v : misses) {
      MarkFetched(v);
      out.fetched.push_back(1);
      out.first_backend.push_back(v % 2);
      out.task_backend.push_back(v % 2);
      out.task_trips.push_back(1);
      out.apply_tasks.push_back([v] {
        if (v == 0) throw std::runtime_error("apply failed");
      });
    }
    return out;
  }
};

TEST(ConcurrentInterfaceCacheTest, AsyncLanesOverlapDistinctBackends) {
  // Two backends on two lanes: a frontier with one trip on each costs
  // about one round trip of wall time, not two.
  SocialNetwork net(Cycle(8));
  TwoLanePlanner base(net);
  base.SetSimulatedLatency(std::chrono::milliseconds(100));
  ConcurrentInterfaceCache cache(base);
  cache.SetFetchMode(FetchMode::kAsync, 2);
  const NodeId frontier[] = {2, 3};
  const auto start = std::chrono::steady_clock::now();
  const auto results = cache.BatchQuery(frontier);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(results[0].has_value());
  EXPECT_TRUE(results[1].has_value());
  EXPECT_LT(elapsed, std::chrono::milliseconds(190));
  EXPECT_GE(elapsed, std::chrono::milliseconds(100));
}

TEST(ConcurrentInterfaceCacheTest, AsyncApplyErrorSurfacesAtTheJoin) {
  SocialNetwork net(Cycle(8));
  TwoLanePlanner base(net);
  ConcurrentInterfaceCache cache(base);
  cache.SetFetchMode(FetchMode::kAsync, 2);
  // Node 0's task throws on lane 0; node 1's task on lane 1 still runs.
  const NodeId bad[] = {0, 1};
  EXPECT_THROW(cache.BatchQuery(bad), std::runtime_error);
  // The join consumed the error: the next fetches on the same lanes
  // succeed.
  const NodeId good[] = {2, 3};
  const auto results = cache.BatchQuery(good);
  EXPECT_TRUE(results[0].has_value());
  EXPECT_TRUE(results[1].has_value());
  EXPECT_TRUE(cache.Query(4).has_value());
}

TEST(ConcurrentInterfaceCacheTest, InactivePipelineFetchCountsNothing) {
  SocialNetwork net(Cycle(8));
  RestrictedInterface base(net);
  ConcurrentInterfaceCache cache(base);
  obs::MetricsRegistry registry;
  cache.SetObservability(&registry, nullptr);
  ASSERT_TRUE(cache.Query(1).has_value());
  const uint64_t requests = cache.TotalRequests();
  const uint64_t misses = registry.CounterValue("cache.misses");
  ASSERT_FALSE(cache.PipelineActive());
  const NodeId frontier[] = {2, 3};
  EXPECT_THROW(cache.PipelinedFetch(frontier), std::logic_error);
  EXPECT_EQ(cache.TotalRequests(), requests);
  EXPECT_EQ(registry.CounterValue("cache.misses"), misses);
  EXPECT_FALSE(cache.IsCached(2));
}

/// Runs a mixed workload against `cache` on `num_threads` threads and
/// returns the number of requests issued: BatchQuery windows that overlap
/// other threads' windows (so ids are often in flight elsewhere — the busy
/// path) and repeat ids within the batch, single Query misses, and QueryRef
/// hits on what the batch just cached. Every thread leases its request
/// slot before any issues a request, so beyond obs::Counter::kShards
/// threads the overflow shard is sure to take requests.
uint64_t MixedRequestsOnThreads(ConcurrentInterfaceCache& cache,
                                size_t num_threads = 8) {
  const NodeId n = cache.num_users();
  std::atomic<uint64_t> issued{0};
  std::latch all_leased(static_cast<std::ptrdiff_t>(num_threads));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&cache, &issued, &all_leased, n, t] {
      obs::Counter::ThreadSlot();
      all_leased.arrive_and_wait();
      for (size_t round = 0; round < 4; ++round) {
        std::vector<NodeId> ids;
        const NodeId first = static_cast<NodeId>((t * 5 + round * 11) % n);
        for (NodeId k = 0; k < 8; ++k) ids.push_back((first + k) % n);
        ids.push_back(ids[0]);  // duplicates within the batch
        ids.push_back(ids[3]);
        cache.BatchQuery(ids);
        cache.Query(static_cast<NodeId>((t * 7 + round * 3) % n));
        constexpr size_t kHits = 50;
        for (size_t rep = 0; rep < kHits; ++rep) {
          cache.QueryRef(ids[rep % ids.size()]);
        }
        issued.fetch_add(ids.size() + 1 + kHits);  // batch + Query + hits
      }
    });
  }
  for (auto& th : threads) th.join();
  return issued.load();
}

TEST(ConcurrentInterfaceCacheTest, RequestCountIsExactUnderThreads) {
  SocialNetwork net(Complete(48));
  RestrictedInterface base(net);
  base.SetSimulatedLatency(std::chrono::microseconds(100));
  base.SetMaxBatchSize(4);
  ConcurrentInterfaceCache cache(base);
  const uint64_t issued = MixedRequestsOnThreads(cache);
  EXPECT_EQ(cache.TotalRequests(), issued);
  EXPECT_EQ(cache.QueryCost(), net.num_users());  // every node paid once
}

TEST(ConcurrentInterfaceCacheTest, RestoreAndResetLandExactCountsAfterThreads) {
  // 20 live threads outnumber the leasable request slots, so some requests
  // land on the counter's overflow shard, which restore and reset must
  // clear too.
  constexpr size_t kThreads = 20;
  static_assert(kThreads > obs::Counter::kShards);
  SocialNetwork net(Complete(48));
  RestrictedInterface base(net);
  ConcurrentInterfaceCache cache(base);
  const uint64_t first = MixedRequestsOnThreads(cache, kThreads);
  const SessionSnapshot snapshot = cache.SnapshotSession();
  EXPECT_EQ(snapshot.total_requests, first);
  MixedRequestsOnThreads(cache, kThreads);
  cache.RestoreSession(snapshot);
  EXPECT_EQ(cache.TotalRequests(), snapshot.total_requests);
  // The restored value is a base, not a stale shard mix: new requests from
  // any thread add exactly on top of it.
  const uint64_t after_restore = MixedRequestsOnThreads(cache, kThreads);
  EXPECT_EQ(cache.TotalRequests(), snapshot.total_requests + after_restore);

  cache.Reset();
  EXPECT_EQ(cache.TotalRequests(), 0u);
  const uint64_t after_reset = MixedRequestsOnThreads(cache, kThreads);
  EXPECT_EQ(cache.TotalRequests(), after_reset);
}

TEST(ConcurrentInterfaceCacheTest, HitsPlusMissesMatchRequestsAfterFreeRun) {
  Rng graph_rng(7);
  SocialNetwork net(LargestComponent(HolmeKim(300, 3, 0.5, graph_rng)));
  RestrictedInterface base(net);
  ConcurrentInterfaceCache cache(base);
  obs::MetricsRegistry registry;
  cache.SetObservability(&registry, nullptr);
  CrawlScheduler scheduler(
      cache, CrawlConfig{/*num_walkers=*/16, /*num_threads=*/4,
                         /*coalesce_frontier=*/false},
      /*seed=*/0xC0FFEE, [](RestrictedInterface& iface, Rng& rng, size_t i) {
        return std::make_unique<SimpleRandomWalk>(iface, rng,
                                                  static_cast<NodeId>(i));
      });
  scheduler.RunRounds(300);
  cache.PublishMetrics();
  const auto hits = static_cast<uint64_t>(registry.GaugeValue("cache.hits"));
  const uint64_t misses = registry.CounterValue("cache.misses");
  EXPECT_EQ(hits + misses, cache.TotalRequests());
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
  EXPECT_EQ(misses, cache.QueryCost());  // no budget: every claim is paid
}

}  // namespace
}  // namespace mto
