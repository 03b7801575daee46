// Sync/async fetch equivalence — the async tentpole's headline invariant
// (DESIGN.md §9): `fetch_mode` is pure execution shape. For every stepping
// mode, thread count, and fault setting, an async crawl must produce
// bit-identical samples, trace, estimates, costs, and per-backend ledgers
// to the sync crawl, because both execute the same plan — async merely
// runs the deferred per-backend ledger/latency work on per-backend lanes.
//
// Ledger caveat, pinned precisely: with token-bucket pacing enabled the
// pacing fields (bucket level, clocks, waits) depend on per-backend arrival
// order, which multi-threaded stepping does not fix in either mode — so the
// full-ledger assertion covers every pacing-free case plus all 1-thread
// cases, and pacing runs are compared 1-thread only.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/graph/generators.h"
#include "src/service/crawl_service.h"

namespace mto {
namespace {

enum class Stepping { kPlain, kCoalesced, kSpeculative };

const char* SteppingName(Stepping stepping) {
  switch (stepping) {
    case Stepping::kPlain: return "plain";
    case Stepping::kCoalesced: return "coalesced";
    case Stepping::kSpeculative: return "speculative";
  }
  return "?";
}

struct Sweep {
  size_t threads;
  Stepping stepping;
  bool faults;
};

std::string SweepName(const testing::TestParamInfo<Sweep>& info) {
  return std::string(SteppingName(info.param.stepping)) + "_" +
         std::to_string(info.param.threads) + "threads_" +
         (info.param.faults ? "faults" : "clean");
}

/// Three-backend scenario; pacing off so per-backend ledgers are pure sums
/// of per-(backend,node,attempt) draws — order-independent, hence exactly
/// comparable even under multi-threaded stepping (see file comment).
ScenarioConfig BaseScenario(const Sweep& sweep) {
  ScenarioConfig config;
  config.dataset = "epinions_small";
  config.seed = 0x5EED5;
  config.num_walkers = 8;
  config.num_threads = sweep.threads;
  config.coalesce_frontier = sweep.stepping != Stepping::kPlain;
  config.program.name =
      sweep.stepping == Stepping::kSpeculative ? "mto" : "srw";
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
  if (sweep.faults) {
    config.backends[0].error_rate = 0.2;
    config.backends[1].timeout_rate = 0.1;
    config.backends[2].quota_rate = 0.15;
  }
  return config;
}

void ExpectResultsBitIdentical(const ServiceResult& sync,
                               const ServiceResult& async) {
  EXPECT_EQ(sync.samples, async.samples);
  ASSERT_EQ(sync.trace.size(), async.trace.size());
  for (size_t i = 0; i < sync.trace.size(); ++i) {
    EXPECT_EQ(sync.trace[i].query_cost, async.trace[i].query_cost)
        << "trace " << i;
    EXPECT_EQ(sync.trace[i].estimate, async.trace[i].estimate) << "trace " << i;
  }
  EXPECT_EQ(sync.final_estimate, async.final_estimate);  // bitwise, not NEAR
  EXPECT_EQ(sync.burn_in_converged, async.burn_in_converged);
  EXPECT_EQ(sync.burn_in_rounds, async.burn_in_rounds);
  EXPECT_EQ(sync.burn_in_query_cost, async.burn_in_query_cost);
  EXPECT_EQ(sync.total_rounds, async.total_rounds);
  EXPECT_EQ(sync.total_steps, async.total_steps);
  EXPECT_EQ(sync.total_query_cost, async.total_query_cost);
  EXPECT_EQ(sync.backend_requests, async.backend_requests);
  EXPECT_EQ(sync.failed_fetches, async.failed_fetches);
  EXPECT_EQ(sync.simulated_time_us, async.simulated_time_us);
}

void ExpectLedgersBitIdentical(const BackendPool::PoolSnapshot& sync,
                               const BackendPool::PoolSnapshot& async) {
  EXPECT_EQ(sync.failed_fetches, async.failed_fetches);
  ASSERT_EQ(sync.ledgers.size(), async.ledgers.size());
  for (size_t b = 0; b < sync.ledgers.size(); ++b) {
    SCOPED_TRACE("backend " + std::to_string(b));
    const BackendLedger& s = sync.ledgers[b];
    const BackendLedger& a = async.ledgers[b];
    EXPECT_EQ(s.stats.unique_queries, a.stats.unique_queries);
    EXPECT_EQ(s.stats.requests, a.stats.requests);
    EXPECT_EQ(s.stats.failed_requests, a.stats.failed_requests);
    EXPECT_EQ(s.stats.timeouts, a.stats.timeouts);
    EXPECT_EQ(s.stats.transient_errors, a.stats.transient_errors);
    EXPECT_EQ(s.stats.quota_rejections, a.stats.quota_rejections);
    EXPECT_EQ(s.stats.budget_refusals, a.stats.budget_refusals);
    EXPECT_EQ(s.stats.pacing_waits, a.stats.pacing_waits);
    EXPECT_EQ(s.stats.simulated_us, a.stats.simulated_us);
    EXPECT_EQ(s.clock_us, a.clock_us);
    EXPECT_EQ(s.bucket_tokens, a.bucket_tokens);  // bitwise double
    EXPECT_EQ(s.last_refill_us, a.last_refill_us);
  }
}

struct RunOutput {
  ServiceResult result;
  BackendPool::PoolSnapshot ledgers;
};

RunOutput RunWithMode(ScenarioConfig config, FetchMode mode) {
  config.fetch_mode = mode;
  CrawlService service(config);
  RunOutput out;
  out.result = service.Run();
  out.ledgers = service.pool().SnapshotBackends();
  return out;
}

class FetchEquivalenceTest : public testing::TestWithParam<Sweep> {};

TEST_P(FetchEquivalenceTest, AsyncIsBitIdenticalToSync) {
  const ScenarioConfig config = BaseScenario(GetParam());
  const RunOutput sync = RunWithMode(config, FetchMode::kSync);
  const RunOutput async = RunWithMode(config, FetchMode::kAsync);
  ExpectResultsBitIdentical(sync.result, async.result);
  ExpectLedgersBitIdentical(sync.ledgers, async.ledgers);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FetchEquivalenceTest,
    testing::Values(Sweep{1, Stepping::kPlain, false},
                    Sweep{1, Stepping::kPlain, true},
                    Sweep{1, Stepping::kCoalesced, false},
                    Sweep{1, Stepping::kCoalesced, true},
                    Sweep{1, Stepping::kSpeculative, false},
                    Sweep{1, Stepping::kSpeculative, true},
                    Sweep{4, Stepping::kPlain, false},
                    Sweep{4, Stepping::kPlain, true},
                    Sweep{4, Stepping::kCoalesced, false},
                    Sweep{4, Stepping::kCoalesced, true},
                    Sweep{4, Stepping::kSpeculative, false},
                    Sweep{4, Stepping::kSpeculative, true}),
    SweepName);

TEST(FetchEquivalenceExtrasTest, PacingLedgersMatchSingleThreaded) {
  // Token-bucket pacing makes ledger state arrival-order dependent; with
  // one thread the order is deterministic, so sync and async must agree on
  // every pacing field too (bucket level bitwise included).
  Sweep sweep{1, Stepping::kCoalesced, true};
  ScenarioConfig config = BaseScenario(sweep);
  // Slow refill, small burst: the bucket drains within a handful of
  // ~80us-latency requests, so waits actually occur (asserted below).
  config.backends[1].rate_per_sec = 1000.0;
  config.backends[1].burst = 4.0;
  const RunOutput sync = RunWithMode(config, FetchMode::kSync);
  const RunOutput async = RunWithMode(config, FetchMode::kAsync);
  ExpectResultsBitIdentical(sync.result, async.result);
  ExpectLedgersBitIdentical(sync.ledgers, async.ledgers);
  // The pacing path actually fired, or this test pins nothing.
  EXPECT_GT(sync.ledgers.ledgers[1].stats.pacing_waits, 0u);
}

TEST(FetchEquivalenceExtrasTest, AsyncWithSharedLanesMatchesSync) {
  // Two lanes for three backends: backends 0 and 2 share lane 0, so their
  // apply tasks interleave on one FIFO worker while each async fetch still
  // joins only its own tasks. Results and full ledgers stay bitwise equal
  // to sync — at 4 threads without pacing, and at 1 thread with pacing on
  // a shared-lane backend (where ledger order is observable).
  Sweep sweep{4, Stepping::kSpeculative, true};
  ScenarioConfig config = BaseScenario(sweep);
  config.fetch_threads = 2;
  const RunOutput sync = RunWithMode(config, FetchMode::kSync);
  const RunOutput async = RunWithMode(config, FetchMode::kAsync);
  ExpectResultsBitIdentical(sync.result, async.result);
  ExpectLedgersBitIdentical(sync.ledgers, async.ledgers);

  ScenarioConfig paced = BaseScenario(Sweep{1, Stepping::kCoalesced, true});
  paced.fetch_threads = 2;
  paced.backends[2].rate_per_sec = 1000.0;
  paced.backends[2].burst = 4.0;
  const RunOutput paced_sync = RunWithMode(paced, FetchMode::kSync);
  const RunOutput paced_async = RunWithMode(paced, FetchMode::kAsync);
  ExpectResultsBitIdentical(paced_sync.result, paced_async.result);
  ExpectLedgersBitIdentical(paced_sync.ledgers, paced_async.ledgers);
  EXPECT_GT(paced_sync.ledgers.ledgers[2].stats.pacing_waits, 0u);
}

TEST(FetchEquivalenceExtrasTest, PacingIsArrivalOrderDependent) {
  // The pinned counterexample behind the 1-thread-only pacing assertion
  // above (DESIGN.md §9): token-bucket state is a function of per-backend
  // arrival *order*, which multi-threaded stepping does not fix in any
  // fetch mode — two walker threads racing their first-touch misses reach
  // the pool in whichever order the OS schedules, sync and async alike.
  // Twin pools serve the same two fetches in opposite orders: every count
  // matches (requests, uniques, pacing waits — the draws are pure per
  // (backend, node, attempt)), but the wait *lengths*, and with them the
  // backend clock and simulated time, differ. No 4-thread equivalence
  // assertion over pacing fields can therefore hold; it would compare two
  // runs of an order-dependent quantity with unpinned orders.
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

TEST(FetchEquivalenceExtrasTest, ObservabilityOnIsBitIdenticalToOff) {
  // The observability passivity contract (DESIGN.md §11): metrics,
  // tracing, periodic snapshots, and the run report draw no randomness,
  // issue no queries, and mutate no session state, so a fully observed
  // async crawl is bit-identical — results and per-backend ledgers — to
  // the unobserved one.
  Sweep sweep{4, Stepping::kSpeculative, true};
  const ScenarioConfig config = BaseScenario(sweep);
  const RunOutput plain = RunWithMode(config, FetchMode::kAsync);

  ScenarioConfig observed_config = config;
  observed_config.fetch_mode = FetchMode::kAsync;
  observed_config.observability.metrics = true;
  observed_config.observability.snapshot_every_units = 2;
  observed_config.observability.http_port = 0;  // live exporter on too
  const std::string trace_path =
      testing::TempDir() + "/fetch_equivalence_obs.trace.json";
  const std::string report_path =
      testing::TempDir() + "/fetch_equivalence_obs.report.json";
  observed_config.observability.trace_path = trace_path;
  observed_config.observability.report_path = report_path;
  CrawlService observed(observed_config);
  const ServiceResult observed_result = observed.Run();

  ExpectResultsBitIdentical(plain.result, observed_result);
  ExpectLedgersBitIdentical(plain.ledgers, observed.pool().SnapshotBackends());
  // Telemetry actually materialized: snapshots were taken and both output
  // files exist and parse as JSON.
  EXPECT_FALSE(observed.snapshots().empty());
  EXPECT_NO_THROW(ParseJsonFile(trace_path));
  EXPECT_NO_THROW(ParseJsonFile(report_path));
  std::remove(trace_path.c_str());
  std::remove(report_path.c_str());
}

TEST(FetchEquivalenceExtrasTest, AsyncResumesSyncCheckpointBitIdentically) {
  // fetch_mode is excluded from the checkpoint fingerprint (execution
  // shape, like num_threads): a sync victim's checkpoint resumes under
  // async fetching, and vice versa, to the same bits.
  Sweep sweep{4, Stepping::kSpeculative, true};
  ScenarioConfig config = BaseScenario(sweep);
  const RunOutput reference = RunWithMode(config, FetchMode::kSync);
  const std::string path =
      testing::TempDir() + "/fetch_equivalence_cross_mode.ckpt";
  {
    ScenarioConfig victim_config = config;
    victim_config.fetch_mode = FetchMode::kSync;
    CrawlService victim(victim_config);
    for (int i = 0; i < 3 && victim.Advance(); ++i) {
    }
    victim.SaveCheckpoint(path);
  }
  ScenarioConfig resumed_config = config;
  resumed_config.fetch_mode = FetchMode::kAsync;
  CrawlService resumed(resumed_config);
  resumed.LoadCheckpoint(path);
  while (resumed.Advance()) {
  }
  ExpectResultsBitIdentical(reference.result, resumed.Finish());
  ExpectLedgersBitIdentical(reference.ledgers,
                            resumed.pool().SnapshotBackends());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mto
