// Fixtures shared by the fetch-path suites. The equivalence half
// (pipeline_equivalence_test, fetch_equivalence_test) runs one scenario at
// a given pipeline depth and compares results and full per-backend ledgers
// bit for bit with the depth-0 sync crawl; the conservation half
// (pipeline_stress_test, fetch_stress_test) builds faulty backends and
// checks the ledger sums that must hold under any schedule.

#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/service/backend_pool.h"
#include "src/service/crawl_service.h"

namespace mto {

enum class Stepping { kCoalesced, kSpeculative };

/// Three-backend scenario, pacing off: per-backend ledgers are then pure
/// sums of per-(backend, node, attempt) draws — order-independent, hence
/// exactly comparable even under multi-threaded stepping. Tests that turn
/// pacing on compare 1-thread runs only
/// (FetchEquivalenceTest.PacingIsArrivalOrderDependent shows why).
inline ScenarioConfig BaseScenario(size_t threads, Stepping stepping,
                                   bool faults) {
  ScenarioConfig config;
  config.dataset = "epinions_small";
  config.seed = 0x5EED5;
  config.num_walkers = 8;
  config.num_threads = threads;
  config.coalesce_frontier = true;
  config.program.name = stepping == Stepping::kSpeculative ? "mto" : "srw";
  config.geweke_check_every = 20;
  config.geweke_min_length = 40;
  config.max_burn_in_rounds = 120;
  config.num_samples = 16;
  config.thinning = 3;
  config.fault_seed = 0xFA17;
  config.retry.max_attempts_per_backend = 10;
  config.backends.resize(3);
  config.backends[0].latency_mean_us = 150;
  config.backends[0].latency_sigma = 0.4;
  config.backends[1].latency_mean_us = 80;
  config.backends[2].latency_mean_us = 200;
  if (faults) {
    config.backends[0].error_rate = 0.2;
    config.backends[1].timeout_rate = 0.1;
    config.backends[2].quota_rate = 0.15;
  }
  return config;
}

inline void ExpectResultsBitIdentical(const ServiceResult& sync,
                                      const ServiceResult& pipelined) {
  EXPECT_EQ(sync.samples, pipelined.samples);
  ASSERT_EQ(sync.trace.size(), pipelined.trace.size());
  for (size_t i = 0; i < sync.trace.size(); ++i) {
    EXPECT_EQ(sync.trace[i].query_cost, pipelined.trace[i].query_cost)
        << "trace " << i;
    EXPECT_EQ(sync.trace[i].estimate, pipelined.trace[i].estimate)
        << "trace " << i;
  }
  EXPECT_EQ(sync.final_estimate, pipelined.final_estimate);  // bitwise
  EXPECT_EQ(sync.burn_in_converged, pipelined.burn_in_converged);
  EXPECT_EQ(sync.burn_in_rounds, pipelined.burn_in_rounds);
  EXPECT_EQ(sync.burn_in_query_cost, pipelined.burn_in_query_cost);
  EXPECT_EQ(sync.total_rounds, pipelined.total_rounds);
  EXPECT_EQ(sync.total_steps, pipelined.total_steps);
  EXPECT_EQ(sync.total_query_cost, pipelined.total_query_cost);
  EXPECT_EQ(sync.backend_requests, pipelined.backend_requests);
  EXPECT_EQ(sync.failed_fetches, pipelined.failed_fetches);
  EXPECT_EQ(sync.simulated_time_us, pipelined.simulated_time_us);
}

inline void ExpectLedgersBitIdentical(
    const BackendPool::PoolSnapshot& sync,
    const BackendPool::PoolSnapshot& pipelined) {
  EXPECT_EQ(sync.failed_fetches, pipelined.failed_fetches);
  ASSERT_EQ(sync.ledgers.size(), pipelined.ledgers.size());
  for (size_t b = 0; b < sync.ledgers.size(); ++b) {
    SCOPED_TRACE("backend " + std::to_string(b));
    const BackendLedger& s = sync.ledgers[b];
    const BackendLedger& p = pipelined.ledgers[b];
    EXPECT_EQ(s.stats.unique_queries, p.stats.unique_queries);
    EXPECT_EQ(s.stats.requests, p.stats.requests);
    EXPECT_EQ(s.stats.failed_requests, p.stats.failed_requests);
    EXPECT_EQ(s.stats.timeouts, p.stats.timeouts);
    EXPECT_EQ(s.stats.transient_errors, p.stats.transient_errors);
    EXPECT_EQ(s.stats.quota_rejections, p.stats.quota_rejections);
    EXPECT_EQ(s.stats.budget_refusals, p.stats.budget_refusals);
    EXPECT_EQ(s.stats.pacing_waits, p.stats.pacing_waits);
    EXPECT_EQ(s.stats.simulated_us, p.stats.simulated_us);
    EXPECT_EQ(s.clock_us, p.clock_us);
    EXPECT_EQ(s.bucket_tokens, p.bucket_tokens);  // bitwise double
    EXPECT_EQ(s.last_refill_us, p.last_refill_us);
  }
}

struct RunOutput {
  ServiceResult result;
  BackendPool::PoolSnapshot ledgers;
};

inline RunOutput RunWithDepth(ScenarioConfig config, size_t depth) {
  config.pipeline_depth = depth;
  CrawlService service(config);
  RunOutput out;
  out.result = service.Run();
  out.ledgers = service.pool().SnapshotBackends();
  return out;
}

inline constexpr uint64_t kFaultSeed = 0xFA57;

inline std::vector<BackendConfig> FaultyBackends(
    size_t n, std::optional<uint64_t> budget) {
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
/// overdrawn; and pool-wide, every unique query was paid by exactly one
/// backend — a prefetch ticket that charged anything, or a consumed ticket
/// that skipped a charge, breaks one of these sums.
inline void ExpectBackendConservation(const BackendPool& pool) {
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
  EXPECT_EQ(unique_total, pool.QueryCost());
}

}  // namespace mto
