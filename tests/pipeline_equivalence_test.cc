// Pipelined/sync equivalence — the lane engine's headline invariant
// (DESIGN.md §9, §10): `pipeline_depth`, like `num_threads`, is pure
// execution shape. For every coalesced stepping mode, thread count, depth,
// and fault setting, a pipelined crawl must produce bit-identical samples,
// trace, estimates, costs, and per-backend ledgers to the depth-0 sync
// crawl: the pipelined engine executes the same plan in the same coordinator
// order — prefetch tickets are wall-clock-only, stale tickets are cancelled
// at a deterministic point, and only the ledger/latency work is deferred
// onto the per-backend lanes. (A free-run crawl cannot be pipelined: its
// misses take the one sync route.)
//
// Ledger caveat, pinned precisely: with token-bucket pacing enabled the
// pacing fields (bucket level, clocks, waits) depend on per-backend arrival
// order, which multi-threaded stepping does not fix in any engine (the
// counterexample is FetchEquivalenceTest.PacingIsArrivalOrderDependent) — so
// the sweep runs with pacing off; fetch_equivalence_test compares pacing
// ledgers 1-thread only, and shared lanes.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "src/service/crawl_service.h"
#include "tests/fetch_test_helpers.h"

namespace mto {
namespace {

const char* SteppingName(Stepping stepping) {
  switch (stepping) {
    case Stepping::kCoalesced: return "coalesced";
    case Stepping::kSpeculative: return "speculative";
  }
  return "?";
}

struct Sweep {
  size_t threads;
  Stepping stepping;
  size_t depth;
  bool faults;
};

std::string SweepName(const testing::TestParamInfo<Sweep>& info) {
  return std::string(SteppingName(info.param.stepping)) + "_" +
         std::to_string(info.param.threads) + "threads_depth" +
         std::to_string(info.param.depth) + "_" +
         (info.param.faults ? "faults" : "clean");
}

/// Depth-0 sync baselines, computed once per (threads, stepping, faults):
/// every pipelined sweep point compares against the matching one.
const RunOutput& Baseline(size_t threads, Stepping stepping, bool faults) {
  using Key = std::tuple<size_t, Stepping, bool>;
  static std::map<Key, RunOutput>& cache = *new std::map<Key, RunOutput>();
  const Key key{threads, stepping, faults};
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, RunWithDepth(BaseScenario(threads, stepping, faults), 0))
             .first;
  }
  return it->second;
}

class PipelineEquivalenceTest : public testing::TestWithParam<Sweep> {};

TEST_P(PipelineEquivalenceTest, PipelinedIsBitIdenticalToSync) {
  const Sweep& sweep = GetParam();
  const RunOutput& sync = Baseline(sweep.threads, sweep.stepping, sweep.faults);
  const RunOutput pipelined = RunWithDepth(
      BaseScenario(sweep.threads, sweep.stepping, sweep.faults), sweep.depth);
  ExpectResultsBitIdentical(sync.result, pipelined.result);
  ExpectLedgersBitIdentical(sync.ledgers, pipelined.ledgers);
}

std::vector<Sweep> AllSweeps() {
  std::vector<Sweep> sweeps;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (Stepping stepping : {Stepping::kCoalesced, Stepping::kSpeculative}) {
      for (size_t depth : {size_t{0}, size_t{1}, size_t{2}}) {
        for (bool faults : {false, true}) {
          sweeps.push_back({threads, stepping, depth, faults});
        }
      }
    }
  }
  return sweeps;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PipelineEquivalenceTest,
                         testing::ValuesIn(AllSweeps()), SweepName);

TEST(PipelineEquivalenceExtrasTest, RendezvousPipelinedMatchesRendezvousSync) {
  // The equivalence contract is routing-policy independent: under
  // rendezvous routing (different trajectory than sharded, same purity) the
  // pipelined engine must still match its own sync baseline bit-for-bit.
  ScenarioConfig config = BaseScenario(4, Stepping::kSpeculative, true);
  config.strategy = BackendSelection::kRendezvous;
  const RunOutput sync = RunWithDepth(config, 0);
  const RunOutput pipelined = RunWithDepth(config, 2);
  ExpectResultsBitIdentical(sync.result, pipelined.result);
  ExpectLedgersBitIdentical(sync.ledgers, pipelined.ledgers);
}

TEST(PipelineEquivalenceExtrasTest, ObservedPipelinedMatchesUnobservedSync) {
  // Passivity under the deepest execution shape: a depth-2 pipelined crawl
  // with full observability (metrics, lane-depth gauges, tracing, periodic
  // snapshots, run report, live exporter) is bit-identical to the
  // unobserved depth-0 sync baseline — telemetry on the lanes and in the
  // prefetcher perturbs nothing (DESIGN.md §11).
  ScenarioConfig config = BaseScenario(4, Stepping::kSpeculative, true);
  const RunOutput sync = RunWithDepth(config, 0);
  ScenarioConfig observed_config = config;
  observed_config.pipeline_depth = 2;
  observed_config.observability.metrics = true;
  observed_config.observability.snapshot_every_units = 2;
  observed_config.observability.http_port = 0;  // live exporter on too
  const std::string trace_path =
      testing::TempDir() + "/pipeline_equivalence_obs.trace.json";
  const std::string report_path =
      testing::TempDir() + "/pipeline_equivalence_obs.report.json";
  observed_config.observability.trace_path = trace_path;
  observed_config.observability.report_path = report_path;
  CrawlService observed(observed_config);
  RunOutput out;
  out.result = observed.Run();
  out.ledgers = observed.pool().SnapshotBackends();
  ExpectResultsBitIdentical(sync.result, out.result);
  ExpectLedgersBitIdentical(sync.ledgers, out.ledgers);
  // Telemetry actually materialized: snapshots were taken and both output
  // files exist and parse as JSON.
  EXPECT_FALSE(observed.snapshots().empty());
  EXPECT_NO_THROW(ParseJsonFile(trace_path));
  EXPECT_NO_THROW(ParseJsonFile(report_path));
  std::remove(trace_path.c_str());
  std::remove(report_path.c_str());
}

TEST(PipelineEquivalenceExtrasTest, PipelinedResumesSyncCheckpointBitIdentically) {
  // pipeline_depth is excluded from the checkpoint fingerprint (execution
  // shape): a sync victim's checkpoint resumes under a depth-2 pipeline to
  // the same bits. RunRounds drains the pipeline at unit boundaries, so the
  // ledgers a checkpoint captures are quiescent in both modes.
  ScenarioConfig config = BaseScenario(4, Stepping::kSpeculative, true);
  const RunOutput reference = RunWithDepth(config, 0);
  const std::string path =
      testing::TempDir() + "/pipeline_equivalence_sync_to_pipelined.ckpt";
  {
    ScenarioConfig victim_config = config;
    victim_config.pipeline_depth = 0;
    CrawlService victim(victim_config);
    for (int i = 0; i < 3 && victim.Advance(); ++i) {
    }
    victim.SaveCheckpoint(path);
  }
  ScenarioConfig resumed_config = config;
  resumed_config.pipeline_depth = 2;
  CrawlService resumed(resumed_config);
  resumed.LoadCheckpoint(path);
  while (resumed.Advance()) {
  }
  ExpectResultsBitIdentical(reference.result, resumed.Finish());
  ExpectLedgersBitIdentical(reference.ledgers,
                            resumed.pool().SnapshotBackends());
  std::remove(path.c_str());
}

TEST(PipelineEquivalenceExtrasTest, SyncResumesPipelinedCheckpointBitIdentically) {
  // And the reverse direction: a checkpoint written mid-crawl by a
  // pipelined service resumes under plain sync fetching to the same bits.
  ScenarioConfig config = BaseScenario(4, Stepping::kCoalesced, true);
  const RunOutput reference = RunWithDepth(config, 0);
  const std::string path =
      testing::TempDir() + "/pipeline_equivalence_pipelined_to_sync.ckpt";
  {
    ScenarioConfig victim_config = config;
    victim_config.pipeline_depth = 2;
    CrawlService victim(victim_config);
    for (int i = 0; i < 3 && victim.Advance(); ++i) {
    }
    victim.SaveCheckpoint(path);
  }
  ScenarioConfig resumed_config = config;
  resumed_config.pipeline_depth = 0;
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
