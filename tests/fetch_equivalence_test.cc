// Lane/sync ledger equivalence: the per-backend lanes of the pipelined
// engine apply each backend's ledger ops in the same plan order as the sync
// fetch, so full ledgers — pacing fields included, where the arrival order
// is pinned — stay bit-identical to the depth-0 crawl (DESIGN.md §9). The
// shape sweep over threads, stepping and depth is pipeline_equivalence_test;
// this suite covers what depends on ledger order: token-bucket pacing at one
// thread, backends sharing lanes, and the counterexample that bounds pacing
// comparisons to one thread.

#include <gtest/gtest.h>

#include "src/graph/generators.h"
#include "src/service/backend_pool.h"
#include "src/service/crawl_service.h"
#include "tests/fetch_test_helpers.h"

namespace mto {
namespace {

TEST(FetchEquivalenceTest, PacingLedgersMatchSingleThreaded) {
  // Token-bucket pacing makes ledger state arrival-order dependent; with
  // one thread the order is deterministic, so sync and pipelined must agree
  // on every pacing field too (bucket level bitwise included).
  ScenarioConfig config = BaseScenario(1, Stepping::kCoalesced, true);
  // Slow refill, small burst: the bucket drains within a handful of
  // ~80us-latency requests, so waits actually occur (asserted below).
  config.backends[1].rate_per_sec = 1000.0;
  config.backends[1].burst = 4.0;
  const RunOutput sync = RunWithDepth(config, 0);
  const RunOutput pipelined = RunWithDepth(config, 2);
  ExpectResultsBitIdentical(sync.result, pipelined.result);
  ExpectLedgersBitIdentical(sync.ledgers, pipelined.ledgers);
  // The pacing path actually fired, or this test pins nothing.
  EXPECT_GT(sync.ledgers.ledgers[1].stats.pacing_waits, 0u);
}

TEST(FetchEquivalenceTest, SharedLanesMatchSync) {
  // Two lanes for three backends: backends 0 and 2 share lane 0, so their
  // apply tasks interleave on one FIFO worker. Results and full ledgers
  // stay bitwise equal to sync — at 4 threads without pacing, and at 1
  // thread with pacing on a shared-lane backend (where ledger order is
  // observable).
  ScenarioConfig config = BaseScenario(4, Stepping::kSpeculative, true);
  config.fetch_threads = 2;
  const RunOutput sync = RunWithDepth(config, 0);
  const RunOutput pipelined = RunWithDepth(config, 2);
  ExpectResultsBitIdentical(sync.result, pipelined.result);
  ExpectLedgersBitIdentical(sync.ledgers, pipelined.ledgers);

  ScenarioConfig paced = BaseScenario(1, Stepping::kCoalesced, true);
  paced.fetch_threads = 2;
  paced.backends[2].rate_per_sec = 1000.0;
  paced.backends[2].burst = 4.0;
  const RunOutput paced_sync = RunWithDepth(paced, 0);
  const RunOutput paced_pipelined = RunWithDepth(paced, 2);
  ExpectResultsBitIdentical(paced_sync.result, paced_pipelined.result);
  ExpectLedgersBitIdentical(paced_sync.ledgers, paced_pipelined.ledgers);
  EXPECT_GT(paced_sync.ledgers.ledgers[2].stats.pacing_waits, 0u);
}

TEST(FetchEquivalenceTest, PacingIsArrivalOrderDependent) {
  // The pinned counterexample behind the 1-thread-only pacing assertions
  // above (DESIGN.md §9): token-bucket state is a function of per-backend
  // arrival *order*, which multi-threaded stepping does not fix in any
  // engine — two walker threads racing their first-touch misses reach the
  // pool in whichever order the OS schedules. Twin pools serve the same
  // two fetches in opposite orders: every count matches (requests,
  // uniques, pacing waits — the draws are pure per (backend, node,
  // attempt)), but the wait *lengths*, and with them the backend clock and
  // simulated time, differ. No 4-thread equivalence assertion over pacing
  // fields can therefore hold; it would compare two runs of an
  // order-dependent quantity with unpinned orders.
  SocialNetwork net(Grid(8, 8));
  auto make_pool = [&net] {
    BackendConfig backend;
    backend.latency_mean_us = 300;
    backend.latency_sigma = 0.5;     // distinct per-node latency draws
    backend.rate_per_sec = 1000.0;   // 1 token/ms: the second fetch waits
    backend.burst = 1.0;
    return BackendPool(net, {backend}, RetryPolicy{},
                       BackendSelection::kSharded, 0xFA17);
  };
  BackendPool ab = make_pool();
  ASSERT_TRUE(ab.Query(0).has_value());
  ASSERT_TRUE(ab.Query(1).has_value());
  BackendPool ba = make_pool();
  ASSERT_TRUE(ba.Query(1).has_value());
  ASSERT_TRUE(ba.Query(0).has_value());
  const BackendStats s_ab = ab.backend_stats(0);
  const BackendStats s_ba = ba.backend_stats(0);
  // Order-independent counts agree...
  EXPECT_EQ(s_ab.requests, s_ba.requests);
  EXPECT_EQ(s_ab.unique_queries, s_ba.unique_queries);
  EXPECT_EQ(s_ab.failed_requests, s_ba.failed_requests);
  EXPECT_EQ(s_ab.pacing_waits, s_ba.pacing_waits);
  EXPECT_EQ(s_ab.pacing_waits, 1u);  // the bucket actually throttled
  // ...but the pacing-bearing fields depend on which node arrived first:
  // the wait absorbed by the second fetch is a function of the first's
  // latency draw, and node 0 and node 1 draw different latencies.
  EXPECT_NE(s_ab.simulated_us, s_ba.simulated_us);
  EXPECT_NE(ab.SnapshotBackends().ledgers[0].clock_us,
            ba.SnapshotBackends().ledgers[0].clock_us);
}

}  // namespace
}  // namespace mto
