// Backend-pool contention stress: many walkers hammering few backends
// through the async fetch path with fault injection on, checked for
// conservation invariants rather than exact values (exact equivalence is
// fetch_equivalence_test's job). Runs under ThreadSanitizer via the
// `runtime` ctest label, which is where the fine-grained ledger locking
// earns its keep.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/graph/generators.h"
#include "src/runtime/concurrent_interface_cache.h"
#include "src/service/backend_pool.h"
#include "src/util/rng.h"

namespace mto {
namespace {

constexpr uint64_t kFaultSeed = 0xFA57;

std::vector<BackendConfig> FaultyBackends(size_t n,
                                          std::optional<uint64_t> budget) {
  std::vector<BackendConfig> backends(n);
  for (size_t b = 0; b < n; ++b) {
    backends[b].budget = budget;
    backends[b].error_rate = 0.15;
    backends[b].timeout_rate = 0.05;
    backends[b].quota_rate = 0.05;
    backends[b].latency_mean_us = 50;
    backends[b].latency_sigma = 0.3;
  }
  return backends;
}

/// Per-backend conservation: every request either succeeded (one unique
/// query) or failed with exactly one recorded fault kind; budgets are never
/// overdrawn; refusals never issue requests.
void ExpectBackendConservation(const BackendPool& pool) {
  uint64_t unique_total = 0;
  for (size_t b = 0; b < pool.num_backends(); ++b) {
    SCOPED_TRACE("backend " + std::to_string(b));
    const BackendStats stats = pool.backend_stats(b);
    EXPECT_EQ(stats.requests, stats.unique_queries + stats.failed_requests);
    EXPECT_EQ(stats.failed_requests,
              stats.timeouts + stats.transient_errors + stats.quota_rejections);
    if (pool.backend_config(b).budget) {
      EXPECT_LE(stats.unique_queries, *pool.backend_config(b).budget);
    }
    unique_total += stats.unique_queries;
  }
  // Pool-level: every unique query was paid by exactly one backend.
  EXPECT_EQ(unique_total, pool.QueryCost());
}

TEST(FetchStressTest, WalkersHammeringBackendsKeepLedgersConserved) {
  SocialNetwork net(Grid(24, 24));  // 576 nodes
  RetryPolicy retry;
  retry.max_attempts_per_backend = 4;
  BackendPool pool(net, FaultyBackends(3, std::nullopt), retry,
                   BackendSelection::kSharded, kFaultSeed);
  ConcurrentInterfaceCache session(pool);
  session.SetFetchMode(FetchMode::kAsync, 3);

  constexpr size_t kWalkers = 8;
  constexpr size_t kStepsPerWalker = 400;
  std::atomic<uint64_t> answered{0};
  std::vector<std::thread> walkers;
  for (size_t w = 0; w < kWalkers; ++w) {
    walkers.emplace_back([&session, &answered, w] {
      Rng rng(Rng(0xBEEF).Fork(w));
      const NodeId n = session.num_users();
      for (size_t step = 0; step < kStepsPerWalker; ++step) {
        // Mix the three query entry points, like real samplers do.
        const NodeId v = static_cast<NodeId>(rng.UniformInt(n));
        switch (step % 3) {
          case 0:
            if (session.Query(v)) answered.fetch_add(1);
            break;
          case 1:
            if (session.QueryRef(v)) answered.fetch_add(1);
            break;
          default: {
            NodeId batch[4];
            for (NodeId& id : batch) {
              id = static_cast<NodeId>(rng.UniformInt(n));
            }
            for (const auto& r : session.BatchQuery(batch)) {
              if (r) answered.fetch_add(1);
            }
            break;
          }
        }
      }
    });
  }
  for (auto& walker : walkers) walker.join();

  EXPECT_GT(answered.load(), 0u);
  ExpectBackendConservation(pool);
  // The shared cache dedupes: unique cost never exceeds the node count,
  // and the fault injector actually fired under this seed.
  EXPECT_LE(session.QueryCost(), net.num_users());
  uint64_t faults = 0;
  for (size_t b = 0; b < pool.num_backends(); ++b) {
    faults += pool.backend_stats(b).failed_requests;
  }
  EXPECT_GT(faults, 0u);
}

TEST(FetchStressTest, BudgetedBackendsNeverOverdrawUnderContention) {
  SocialNetwork net(Grid(24, 24));
  RetryPolicy retry;
  retry.max_attempts_per_backend = 3;
  // Tight per-backend budgets plus a pool-wide cap above their sum, so the
  // keys exhaust first and fetches get permanently refused while walkers
  // are still racing.
  BackendPool pool(net, FaultyBackends(4, 60), retry,
                   BackendSelection::kRendezvous, kFaultSeed);
  pool.SetBudget(400);
  ConcurrentInterfaceCache session(pool);
  session.SetFetchMode(FetchMode::kAsync, 4);

  std::vector<std::thread> walkers;
  for (size_t w = 0; w < 8; ++w) {
    walkers.emplace_back([&session, w] {
      Rng rng(Rng(0xD00D).Fork(w));
      const NodeId n = session.num_users();
      for (size_t step = 0; step < 300; ++step) {
        NodeId batch[8];
        for (NodeId& id : batch) {
          id = static_cast<NodeId>(rng.UniformInt(n));
        }
        session.BatchQuery(batch);
      }
    });
  }
  for (auto& walker : walkers) walker.join();

  ExpectBackendConservation(pool);
  EXPECT_LE(session.QueryCost(), 4 * 60u);  // sum of the per-key budgets
  // With every key capped at 60 and faults on, some fetches must have been
  // permanently refused — and each refusal left its node uncached.
  EXPECT_GT(pool.FailedFetches(), 0u);
}

TEST(FetchStressTest, AsyncModeFallsBackOnPlainInterface) {
  // A session without an async-capable backend model (the base class'
  // perfect backend) must behave exactly like sync mode under kAsync.
  SocialNetwork net(Cycle(32));
  RestrictedInterface plain(net);
  ConcurrentInterfaceCache session(plain);
  session.SetFetchMode(FetchMode::kAsync, 2);
  for (NodeId v = 0; v < 32; ++v) {
    EXPECT_TRUE(session.Query(v).has_value());
  }
  NodeId batch[3] = {1, 2, 3};
  EXPECT_EQ(session.BatchQuery(batch).size(), 3u);
  EXPECT_EQ(session.QueryCost(), 32u);
}

}  // namespace
}  // namespace mto
