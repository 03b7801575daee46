// Backend-pool contention stress through the lanes: many walkers hammering
// few faulty keys in coalesced MTO crawls at depth 2, where frontier plans
// and commit-time misses post onto the same per-backend lanes concurrently,
// checked for the ledger conservation laws rather than exact values (exact
// equivalence is fetch_equivalence_test's and pipeline_equivalence_test's
// job). Runs under ThreadSanitizer via the `runtime` ctest label, which is
// where the per-ledger locking earns its keep.

#include <gtest/gtest.h>

#include <cstdint>

#include "src/service/backend_pool.h"
#include "src/service/crawl_service.h"
#include "tests/fetch_test_helpers.h"

namespace mto {
namespace {

TEST(FetchStressTest, PipelinedMtoCrawlUnderFaultsKeepsLedgersConserved) {
  // Walkers hammering few faulty keys through the lanes: a coalesced MTO
  // crawl at depth 2 on four threads, where every round plans its frontier
  // onto the lanes while the commits' re-pick misses plan single nodes
  // onto the same lanes concurrently. No budgets, so nothing but faults
  // refuses a fetch.
  ScenarioConfig config;
  config.dataset = "epinions_small";
  config.seed = 0xBEEF;
  config.program.name = "mto";
  config.num_walkers = 16;
  config.num_threads = 4;
  config.coalesce_frontier = true;
  config.pipeline_depth = 2;
  config.fetch_threads = 3;
  config.geweke_check_every = 20;
  config.geweke_min_length = 40;
  config.max_burn_in_rounds = 100;
  config.num_samples = 32;
  config.thinning = 3;
  config.fault_seed = kFaultSeed;
  config.retry.max_attempts_per_backend = 4;
  config.backends = FaultyBackends(3, std::nullopt);
  CrawlService service(config);
  const ServiceResult result = service.Run();
  ExpectBackendConservation(service.pool());
  // The shared cache dedupes: unique cost never exceeds the node count,
  // and the fault injector actually fired under this seed.
  EXPECT_LE(service.pool().QueryCost(), service.network().num_users());
  uint64_t faults = 0;
  for (size_t b = 0; b < service.pool().num_backends(); ++b) {
    faults += service.pool().backend_stats(b).failed_requests;
  }
  EXPECT_GT(faults, 0u);
  EXPECT_GT(result.total_steps, 0u);
}

TEST(FetchStressTest, PipelinedMtoCrawlUnderExhaustedBudgetsNeverOverdraws) {
  // Tight per-key budgets plus a pool-wide cap above their sum, so the
  // keys run dry early and fetches get refused for good while the walkers
  // are still racing through the lanes.
  ScenarioConfig config;
  config.dataset = "epinions_small";
  config.seed = 0xD00D;
  config.program.name = "mto";
  config.num_walkers = 16;
  config.num_threads = 4;
  config.coalesce_frontier = true;
  config.pipeline_depth = 2;
  config.strategy = BackendSelection::kRendezvous;
  config.geweke_check_every = 20;
  config.geweke_min_length = 40;
  config.max_burn_in_rounds = 100;
  // 40 collections 5 rounds apart: the crawl outlives the keys.
  config.num_samples = 640;
  config.thinning = 5;
  config.fault_seed = kFaultSeed;
  config.retry.max_attempts_per_backend = 3;
  config.total_budget = 400;
  config.backends = FaultyBackends(4, 60);
  CrawlService service(config);
  const ServiceResult result = service.Run();
  ExpectBackendConservation(service.pool());
  EXPECT_LE(service.pool().QueryCost(), 4 * 60u);  // sum of the key budgets
  // Some fetches were refused for good, and each refusal left its node
  // uncached.
  EXPECT_GT(service.pool().FailedFetches(), 0u);
  EXPECT_GT(result.total_steps, 0u);
}

}  // namespace
}  // namespace mto
