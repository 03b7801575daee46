#include "src/service/backend_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "src/graph/generators.h"
#include "src/runtime/concurrent_interface_cache.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace mto {
namespace {

constexpr uint64_t kFaultSeed = 0xFA17;

SocialNetwork TestNet() { return SocialNetwork(Cycle(64)); }

std::vector<BackendConfig> PerfectBackends(size_t n) {
  return std::vector<BackendConfig>(n);
}

TEST(BackendPoolTest, PerfectBackendBehavesLikeBaseInterface) {
  SocialNetwork net = TestNet();
  BackendPool pool(net, PerfectBackends(1), RetryPolicy{},
                   BackendSelection::kSharded, kFaultSeed);
  auto r = pool.Query(5);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->user, 5u);
  pool.Query(5);
  EXPECT_EQ(pool.QueryCost(), 1u);
  EXPECT_EQ(pool.TotalRequests(), 2u);
  EXPECT_EQ(pool.BackendRequests(), 1u);
  EXPECT_EQ(pool.backend_stats(0).unique_queries, 1u);
  EXPECT_EQ(pool.FailedFetches(), 0u);
}

TEST(BackendPoolTest, ShardedSelectionAssignsByNodeId) {
  SocialNetwork net = TestNet();
  BackendPool pool(net, PerfectBackends(4), RetryPolicy{},
                   BackendSelection::kSharded, kFaultSeed);
  for (NodeId v = 0; v < 16; ++v) pool.Query(v);
  for (size_t b = 0; b < 4; ++b) {
    EXPECT_EQ(pool.backend_stats(b).unique_queries, 4u) << "backend " << b;
  }
}

TEST(BackendPoolTest, BudgetExhaustionFailsOverToNextBackend) {
  SocialNetwork net = TestNet();
  std::vector<BackendConfig> backends(2);
  backends[0].budget = 3;
  backends[1].budget = 3;
  BackendPool pool(net, backends, RetryPolicy{}, BackendSelection::kSharded,
                   kFaultSeed);
  // Nodes 0,2,4,... shard to backend 0; drain both budgets.
  for (NodeId v = 0; v < 6; ++v) EXPECT_TRUE(pool.Query(2 * v).has_value());
  EXPECT_EQ(pool.backend_stats(0).unique_queries, 3u);
  EXPECT_EQ(pool.backend_stats(1).unique_queries, 3u);
  // All keys spent: the fetch is permanently refused, node stays uncached.
  EXPECT_FALSE(pool.Query(13).has_value());
  EXPECT_FALSE(pool.IsCached(13));
  EXPECT_EQ(pool.FailedFetches(), 1u);
  EXPECT_GE(pool.backend_stats(0).budget_refusals, 1u);
}

TEST(BackendPoolTest, TransientFaultsAreRetriedAndMaskedFromCallers) {
  SocialNetwork net = TestNet();
  std::vector<BackendConfig> backends(1);
  backends[0].error_rate = 0.4;
  RetryPolicy retry;
  retry.max_attempts_per_backend = 20;  // enough to mask p=0.4 w.h.p.
  BackendPool pool(net, backends, retry, BackendSelection::kSharded,
                   kFaultSeed);
  for (NodeId v = 0; v < 64; ++v) {
    EXPECT_TRUE(pool.Query(v).has_value()) << "node " << v;
  }
  const BackendStats stats = pool.backend_stats(0);
  EXPECT_EQ(stats.unique_queries, 64u);
  EXPECT_GT(stats.transient_errors, 0u);
  EXPECT_EQ(stats.requests, 64u + stats.failed_requests);
  EXPECT_EQ(pool.FailedFetches(), 0u);
}

TEST(BackendPoolTest, FaultDrawsArePureFunctionsOfNodeAndAttempt) {
  SocialNetwork net = TestNet();
  std::vector<BackendConfig> backends(2);
  backends[0].error_rate = 0.3;
  backends[1].timeout_rate = 0.2;
  auto run = [&](std::vector<NodeId> order) {
    BackendPool pool(net, backends, RetryPolicy{}, BackendSelection::kSharded,
                     kFaultSeed);
    for (NodeId v : order) pool.Query(v);
    std::vector<uint64_t> uniques;
    for (size_t b = 0; b < 2; ++b) {
      uniques.push_back(pool.backend_stats(b).unique_queries);
    }
    return std::make_pair(uniques, pool.FailedFetches());
  };
  std::vector<NodeId> forward(32), reverse(32);
  std::iota(forward.begin(), forward.end(), 0);
  std::iota(reverse.begin(), reverse.end(), 0);
  std::reverse(reverse.begin(), reverse.end());
  // Arrival order must not change which backend pays for which node.
  EXPECT_EQ(run(forward), run(reverse));
}

TEST(BackendPoolTest, TimeoutsBurnSimulatedTime) {
  SocialNetwork net = TestNet();
  std::vector<BackendConfig> backends(1);
  backends[0].timeout_rate = 1.0;  // every attempt times out
  backends[0].timeout_us = 1000;
  RetryPolicy retry;
  retry.max_attempts_per_backend = 2;
  retry.jitter = 0.0;
  retry.base_backoff_us = 500;
  BackendPool pool(net, backends, retry, BackendSelection::kSharded,
                   kFaultSeed);
  EXPECT_FALSE(pool.Query(0).has_value());
  const BackendStats stats = pool.backend_stats(0);
  EXPECT_EQ(stats.timeouts, 2u);
  EXPECT_EQ(stats.failed_requests, 2u);
  // 2 timeouts (1000us each) + backoffs 500us and 1000us.
  EXPECT_EQ(stats.simulated_us, 2 * 1000u + 500u + 1000u);
  EXPECT_EQ(pool.SimulatedTimeUs(), stats.simulated_us);
}

TEST(BackendPoolTest, TokenBucketPacesOnSimulatedClock) {
  SocialNetwork net = TestNet();
  std::vector<BackendConfig> backends(1);
  backends[0].rate_per_sec = 1000.0;  // 1 request per 1000us
  backends[0].burst = 2.0;
  BackendPool pool(net, backends, RetryPolicy{}, BackendSelection::kSharded,
                   kFaultSeed);
  for (NodeId v = 0; v < 10; ++v) pool.Query(v);
  const BackendStats stats = pool.backend_stats(0);
  // First two ride the burst; the rest wait ~1000us each.
  EXPECT_EQ(stats.pacing_waits, 8u);
  EXPECT_GE(stats.simulated_us, 8 * 999u);
  EXPECT_EQ(stats.unique_queries, 10u);
}

TEST(BackendPoolTest, LatencyDistributionIsDeterministicAndCharged) {
  SocialNetwork net = TestNet();
  std::vector<BackendConfig> backends(1);
  backends[0].latency_mean_us = 200;
  backends[0].latency_sigma = 0.5;
  auto run = [&] {
    BackendPool pool(net, backends, RetryPolicy{}, BackendSelection::kSharded,
                     kFaultSeed);
    for (NodeId v = 0; v < 32; ++v) pool.Query(v);
    return pool.backend_stats(0).simulated_us;
  };
  const uint64_t a = run();
  EXPECT_EQ(a, run());  // bit-reproducible
  EXPECT_GT(a, 0u);
}

TEST(BackendPoolTest, SnapshotRestoreRoundTripsLedgers) {
  SocialNetwork net = TestNet();
  std::vector<BackendConfig> backends(2);
  backends[0].error_rate = 0.3;
  backends[0].rate_per_sec = 100.0;
  BackendPool pool(net, backends, RetryPolicy{}, BackendSelection::kSharded,
                   kFaultSeed);
  for (NodeId v = 0; v < 20; ++v) pool.Query(v);

  const SessionSnapshot session = pool.SnapshotSession();
  const BackendPool::PoolSnapshot snapshot = pool.SnapshotBackends();

  BackendPool restored(net, backends, RetryPolicy{},
                       BackendSelection::kSharded, kFaultSeed);
  restored.RestoreSession(session);
  restored.RestoreBackends(snapshot);
  EXPECT_EQ(restored.QueryCost(), pool.QueryCost());
  EXPECT_EQ(restored.BackendRequests(), pool.BackendRequests());
  for (size_t b = 0; b < 2; ++b) {
    EXPECT_EQ(restored.backend_stats(b).requests,
              pool.backend_stats(b).requests);
    EXPECT_EQ(restored.backend_stats(b).simulated_us,
              pool.backend_stats(b).simulated_us);
  }
  // The restored pool continues exactly like the original.
  auto a = pool.Query(40);
  auto b = restored.Query(40);
  ASSERT_EQ(a.has_value(), b.has_value());
  EXPECT_EQ(pool.backend_stats(0).requests, restored.backend_stats(0).requests);
  EXPECT_EQ(pool.backend_stats(1).requests, restored.backend_stats(1).requests);

  BackendPool wrong(net, PerfectBackends(3), RetryPolicy{},
                    BackendSelection::kSharded, kFaultSeed);
  EXPECT_THROW(wrong.RestoreBackends(snapshot), std::invalid_argument);
}

TEST(BackendPoolTest, WorksUnderConcurrentInterfaceCache) {
  SocialNetwork net = TestNet();
  std::vector<BackendConfig> backends(2);
  backends[0].error_rate = 0.2;
  RetryPolicy retry;
  retry.max_attempts_per_backend = 16;
  BackendPool pool(net, backends, retry, BackendSelection::kSharded,
                   kFaultSeed);
  ConcurrentInterfaceCache cache(pool);
  ThreadPool threads(4);
  threads.Run([&](size_t t) {
    for (NodeId v = 0; v < 64; ++v) {
      auto r = cache.Query((v + 16 * t) % 64);
      EXPECT_TRUE(r.has_value());
    }
  });
  EXPECT_EQ(cache.QueryCost(), 64u);
  EXPECT_EQ(pool.backend_stats(0).unique_queries, 32u);
  EXPECT_EQ(pool.backend_stats(1).unique_queries, 32u);
}

TEST(BackendPoolTest, ValidatesConfigs) {
  SocialNetwork net = TestNet();
  EXPECT_THROW(BackendPool(net, {}, RetryPolicy{},
                           BackendSelection::kSharded, 1),
               std::invalid_argument);
  std::vector<BackendConfig> bad(1);
  bad[0].error_rate = 0.8;
  bad[0].timeout_rate = 0.5;  // rates sum > 1
  EXPECT_THROW(BackendPool(net, bad, RetryPolicy{},
                           BackendSelection::kSharded, 1),
               std::invalid_argument);
  std::vector<BackendConfig> named(1);
  BackendPool pool(net, named, RetryPolicy{}, BackendSelection::kSharded, 1);
  EXPECT_EQ(pool.backend_config(0).name, "key-0");
}

TEST(BackendPoolTest, RejectsDuplicateBackendNames) {
  // Per-backend gauges are keyed by name, so twins would overwrite each
  // other's ledgers in PublishMetrics. Explicit twins are rejected, and so
  // is an explicit name that collides with another backend's default.
  SocialNetwork net = TestNet();
  std::vector<BackendConfig> twins(3);
  twins[0].name = "dup";
  twins[2].name = "dup";
  EXPECT_THROW(BackendPool(net, twins, RetryPolicy{},
                           BackendSelection::kRendezvous, 1),
               std::invalid_argument);
  std::vector<BackendConfig> defaulted(2);
  defaulted[0].name = "key-1";  // backend 1 defaults to "key-1" too
  try {
    BackendPool(net, defaulted, RetryPolicy{}, BackendSelection::kSharded, 1);
    FAIL() << "duplicate defaulted name accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("\"key-1\""), std::string::npos)
        << e.what();
  }
  std::vector<BackendConfig> distinct(2);
  distinct[0].name = "key-0";  // matches its own default: fine
  EXPECT_NO_THROW(BackendPool(net, distinct, RetryPolicy{},
                              BackendSelection::kRendezvous, 1));
}

/// One backend's ledger as recorded: every BackendStats field, then the
/// backend's simulated clock.
struct RecordedLedger {
  uint64_t unique_queries, requests, failed_requests, timeouts,
      transient_errors, quota_rejections, budget_refusals, pacing_waits,
      simulated_us, clock_us;
};

/// Queries every id of a fixed shuffled list through `pool`, then checks
/// each ledger and the refusal count against constants recorded before the
/// routing front's draw and rendezvous caches existed. Any change to a
/// fault, latency or jitter draw, or to a route order, moves them.
void ExpectRecordedLedgers(BackendPool& pool,
                           const std::vector<RecordedLedger>& recorded,
                           uint64_t recorded_failed) {
  std::vector<NodeId> ids(pool.num_users());
  std::iota(ids.begin(), ids.end(), 0);
  Rng(0x5EED).Shuffle(ids);
  for (NodeId v : ids) pool.Query(v);
  const BackendPool::PoolSnapshot snapshot = pool.SnapshotBackends();
  ASSERT_EQ(snapshot.ledgers.size(), recorded.size());
  for (size_t b = 0; b < recorded.size(); ++b) {
    const BackendStats& s = snapshot.ledgers[b].stats;
    const RecordedLedger& r = recorded[b];
    SCOPED_TRACE(pool.backend_config(b).name);
    EXPECT_EQ(s.unique_queries, r.unique_queries);
    EXPECT_EQ(s.requests, r.requests);
    EXPECT_EQ(s.failed_requests, r.failed_requests);
    EXPECT_EQ(s.timeouts, r.timeouts);
    EXPECT_EQ(s.transient_errors, r.transient_errors);
    EXPECT_EQ(s.quota_rejections, r.quota_rejections);
    EXPECT_EQ(s.budget_refusals, r.budget_refusals);
    EXPECT_EQ(s.pacing_waits, r.pacing_waits);
    EXPECT_EQ(s.simulated_us, r.simulated_us);
    EXPECT_EQ(snapshot.ledgers[b].clock_us, r.clock_us);
  }
  EXPECT_EQ(pool.FailedFetches(), recorded_failed);
}

TEST(BackendPoolTest, DrawsMatchRecordedLedgers) {
  // The fleets of perfbench's wide-crawl and mto-fleet workloads
  // (rendezvous routing, log-normal latency, faults, jittered backoff).
  // Every key also gets a budget covering 3/4 of its share, and the first
  // key a rate limit, so spent-key routing, refusals, failed fetches and
  // pacing are pinned too.
  SocialNetwork net(Cycle(4000));
  const auto budgeted = [](std::vector<BackendConfig> fleet) {
    for (BackendConfig& config : fleet) config.budget = 3000 / fleet.size();
    fleet[0].rate_per_sec = 5000.0;
    fleet[0].burst = 4.0;
    return fleet;
  };
  const auto key = [](const char* name, uint64_t latency_us, double sigma,
                      double timeout, double error, double quota) {
    BackendConfig config;
    config.name = name;
    config.latency_mean_us = latency_us;
    config.latency_sigma = sigma;
    config.timeout_rate = timeout;
    config.error_rate = error;
    config.quota_rate = quota;
    config.timeout_us = 1000;
    return config;
  };
  {
    SCOPED_TRACE("wide-crawl");
    std::vector<BackendConfig> fleet;
    for (const char* name : {"key-0", "key-1", "key-2", "key-3"}) {
      fleet.push_back(key(name, 150, 0.5, 0.01, 0.03, 0.01));
    }
    BackendPool pool(net, budgeted(fleet), RetryPolicy{},
                     BackendSelection::kRendezvous, kFaultSeed);
    ExpectRecordedLedgers(
        pool,
        {{750, 794, 44, 6, 29, 9, 1000, 339, 201356, 201356},
         {750, 787, 37, 6, 23, 8, 1000, 0, 160775, 160775},
         {750, 789, 39, 6, 26, 7, 1000, 0, 160955, 160955},
         {750, 784, 34, 7, 21, 6, 1000, 0, 157644, 157644}},
        /*recorded_failed=*/1000);
  }
  {
    SCOPED_TRACE("mto-fleet");
    RetryPolicy retry;
    retry.max_attempts_per_backend = 3;
    retry.base_backoff_us = 200;
    retry.backoff_multiplier = 2.0;
    retry.max_backoff_us = 100000;
    retry.jitter = 0.5;
    const std::vector<BackendConfig> fleet = {
        key("us-east", 200, 0.6, 0.02, 0.05, 0.01),
        key("eu-west", 300, 0.6, 0.01, 0.03, 0.02),
        key("ap-south", 400, 0.6, 0.03, 0.02, 0.01)};
    BackendPool pool(net, budgeted(fleet), retry,
                     BackendSelection::kRendezvous, kFaultSeed);
    ExpectRecordedLedgers(
        pool,
        {{1000, 1078, 78, 24, 47, 7, 1000, 122, 257052, 257052},
         {1000, 1070, 70, 13, 40, 17, 1000, 0, 337771, 337771},
         {1000, 1063, 63, 30, 23, 10, 1000, 0, 455548, 455548}},
        /*recorded_failed=*/1000);
  }
}

}  // namespace
}  // namespace mto
