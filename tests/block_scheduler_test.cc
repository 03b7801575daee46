// Block-major scheduling equivalence — the block tentpole's headline
// invariant (DESIGN.md §14): `schedule` is pure execution shape. Bucketing
// live walkers by graph block and draining one loaded block at a time over
// a bounded resident set (with on-disk spill segments) reorders *when*
// each walker steps, never *where*: a walker's trajectory is a function of
// its own forked RNG stream and the immutable network only, and CommitStep
// demand-fetches anything the frontier warm-up missed. So for every
// program, thread count, and fetch mode, a block-major crawl must produce
// bit-identical samples, trace, estimates, costs, and per-backend ledgers
// to the walker-major crawl.
//
// Routing is left at sharded (the default): per-backend ledgers are pure
// sums of per-(backend, node, attempt) draws under stable (v % N) routing,
// hence exactly comparable across engines; rendezvous load tie-breaks are
// arrival-order dependent and pinned elsewhere (routing_test).

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "src/service/crawl_service.h"

namespace mto {
namespace {

enum class Fetch { kSync, kAsync, kPipelined };

const char* FetchName(Fetch fetch) {
  switch (fetch) {
    case Fetch::kSync: return "sync";
    case Fetch::kAsync: return "async";
    case Fetch::kPipelined: return "pipelined";
  }
  return "?";
}

struct Sweep {
  const char* program;
  size_t threads;
  Fetch fetch;
};

std::string SweepName(const testing::TestParamInfo<Sweep>& info) {
  return std::string(info.param.program) + "_" +
         std::to_string(info.param.threads) + "threads_" +
         FetchName(info.param.fetch);
}

/// Three-backend faulty scenario on epinions_small (3,300 nodes) with a
/// 128-node block over a two-block resident budget — 26 blocks, so the
/// block engine actually evicts and reloads instead of degenerating into
/// an everything-resident run. Pacing off: ledgers stay order-independent
/// (see fetch_equivalence_test).
ScenarioConfig BaseScenario(const Sweep& sweep) {
  ScenarioConfig config;
  config.dataset = "epinions_small";
  config.seed = 0x5EED5;
  config.program.name = sweep.program;
  config.num_walkers = 8;
  config.num_threads = sweep.threads;
  // The walker-major reference needs coalesced stepping for the pipelined
  // sweep (pipelining rides the coalesced round); the block engine ignores
  // the flag. Either walker stepping mode is a valid reference — they are
  // equivalence-pinned against each other already.
  config.coalesce_frontier = sweep.fetch == Fetch::kPipelined;
  config.fetch_mode =
      sweep.fetch == Fetch::kSync ? FetchMode::kSync : FetchMode::kAsync;
  config.pipeline_depth = sweep.fetch == Fetch::kPipelined ? 2 : 0;
  config.block_size = 128;
  config.resident_blocks = 2;
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
  config.backends[0].error_rate = 0.2;
  config.backends[1].latency_mean_us = 80;
  config.backends[1].timeout_rate = 0.1;
  config.backends[2].latency_mean_us = 200;
  config.backends[2].quota_rate = 0.15;
  return config;
}

void ExpectResultsBitIdentical(const ServiceResult& walker,
                               const ServiceResult& block) {
  EXPECT_EQ(walker.samples, block.samples);
  ASSERT_EQ(walker.trace.size(), block.trace.size());
  for (size_t i = 0; i < walker.trace.size(); ++i) {
    EXPECT_EQ(walker.trace[i].query_cost, block.trace[i].query_cost)
        << "trace " << i;
    EXPECT_EQ(walker.trace[i].estimate, block.trace[i].estimate)
        << "trace " << i;
  }
  EXPECT_EQ(walker.final_estimate, block.final_estimate);  // bitwise
  EXPECT_EQ(walker.burn_in_converged, block.burn_in_converged);
  EXPECT_EQ(walker.burn_in_rounds, block.burn_in_rounds);
  EXPECT_EQ(walker.burn_in_query_cost, block.burn_in_query_cost);
  EXPECT_EQ(walker.total_rounds, block.total_rounds);
  EXPECT_EQ(walker.total_steps, block.total_steps);
  EXPECT_EQ(walker.total_query_cost, block.total_query_cost);
  EXPECT_EQ(walker.backend_requests, block.backend_requests);
  EXPECT_EQ(walker.failed_fetches, block.failed_fetches);
  EXPECT_EQ(walker.simulated_time_us, block.simulated_time_us);
}

void ExpectLedgersBitIdentical(const BackendPool::PoolSnapshot& walker,
                               const BackendPool::PoolSnapshot& block) {
  EXPECT_EQ(walker.failed_fetches, block.failed_fetches);
  ASSERT_EQ(walker.ledgers.size(), block.ledgers.size());
  for (size_t b = 0; b < walker.ledgers.size(); ++b) {
    SCOPED_TRACE("backend " + std::to_string(b));
    const BackendLedger& w = walker.ledgers[b];
    const BackendLedger& k = block.ledgers[b];
    EXPECT_EQ(w.stats.unique_queries, k.stats.unique_queries);
    EXPECT_EQ(w.stats.requests, k.stats.requests);
    EXPECT_EQ(w.stats.failed_requests, k.stats.failed_requests);
    EXPECT_EQ(w.stats.timeouts, k.stats.timeouts);
    EXPECT_EQ(w.stats.transient_errors, k.stats.transient_errors);
    EXPECT_EQ(w.stats.quota_rejections, k.stats.quota_rejections);
    EXPECT_EQ(w.stats.budget_refusals, k.stats.budget_refusals);
    EXPECT_EQ(w.stats.simulated_us, k.stats.simulated_us);
  }
}

struct RunOutput {
  ServiceResult result;
  BackendPool::PoolSnapshot ledgers;
  ConcurrentInterfaceCache::SpillStats spill;
};

RunOutput RunWithSchedule(ScenarioConfig config, ScheduleMode schedule) {
  config.schedule = schedule;
  CrawlService service(config);
  RunOutput out;
  out.result = service.Run();
  out.ledgers = service.pool().SnapshotBackends();
  out.spill = service.session().spill_stats();
  return out;
}

class BlockEquivalenceTest : public testing::TestWithParam<Sweep> {};

TEST_P(BlockEquivalenceTest, BlockIsBitIdenticalToWalker) {
  const ScenarioConfig config = BaseScenario(GetParam());
  const RunOutput walker = RunWithSchedule(config, ScheduleMode::kWalker);
  const RunOutput block = RunWithSchedule(config, ScheduleMode::kBlock);
  ExpectResultsBitIdentical(walker.result, block.result);
  ExpectLedgersBitIdentical(walker.ledgers, block.ledgers);
  // The block engine actually cycled its resident set, or this sweep pins
  // a degenerate configuration.
  EXPECT_GT(block.spill.loads, 0u);
  EXPECT_GT(block.spill.evictions, 0u);
  EXPECT_EQ(walker.spill.loads, 0u);  // walker mode never configures blocks
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockEquivalenceTest,
    testing::Values(
        Sweep{"srw", 1, Fetch::kSync}, Sweep{"srw", 2, Fetch::kAsync},
        Sweep{"srw", 8, Fetch::kPipelined}, Sweep{"mhrw", 1, Fetch::kAsync},
        Sweep{"mhrw", 2, Fetch::kPipelined}, Sweep{"mhrw", 8, Fetch::kSync},
        Sweep{"mto", 1, Fetch::kPipelined}, Sweep{"mto", 2, Fetch::kSync},
        Sweep{"mto", 8, Fetch::kAsync}, Sweep{"node2vec", 1, Fetch::kSync},
        Sweep{"node2vec", 2, Fetch::kAsync},
        Sweep{"node2vec", 8, Fetch::kPipelined}),
    SweepName);

TEST(BlockSchedulerTest, PathologicalBudgetSpillsAndStaysBitIdentical) {
  // resident = 1 with tiny blocks: every cross-block hop evicts, every
  // return demand-reloads. The worst case for the spill tier is still a
  // no-op for results — and segment files actually materialize in the
  // named spill directory.
  Sweep sweep{"mto", 4, Fetch::kAsync};
  ScenarioConfig config = BaseScenario(sweep);
  config.block_size = 64;
  config.resident_blocks = 1;
  const std::string spill_dir =
      testing::TempDir() + "/block_scheduler_test_spill";
  config.spill_dir = spill_dir;
  const RunOutput walker = RunWithSchedule(config, ScheduleMode::kWalker);
  const RunOutput block = RunWithSchedule(config, ScheduleMode::kBlock);
  ExpectResultsBitIdentical(walker.result, block.result);
  ExpectLedgersBitIdentical(walker.ledgers, block.ledgers);
  EXPECT_GT(block.spill.evictions, block.spill.loads / 2);
  EXPECT_GT(block.spill.demand_reloads, 0u);
  EXPECT_GT(block.spill.segment_files, 0u);
  EXPECT_GT(block.spill.segment_bytes, 0u);
  size_t segments_on_disk = 0;
  for (const auto& entry : std::filesystem::directory_iterator(spill_dir)) {
    segments_on_disk +=
        entry.path().filename().string().rfind("block_", 0) == 0 ? 1 : 0;
  }
  EXPECT_EQ(segments_on_disk, block.spill.segment_files);
  std::filesystem::remove_all(spill_dir);
}

/// Kill-anywhere resume across engines: checkpoint a victim after `cut`
/// units, resume under `resume_schedule`, and require the stitched run to
/// match the uninterrupted walker-major reference bit for bit. The
/// schedule/block knobs are excluded from the fingerprint, so checkpoints
/// resume across engine modes in both directions; the v4 residency section
/// carries the spill image and is simply ignored by a walker-major resume.
void CheckResumeAcrossEngines(ScheduleMode victim_schedule,
                              ScheduleMode resume_schedule, int cut) {
  SCOPED_TRACE(std::string("victim=") +
               (victim_schedule == ScheduleMode::kBlock ? "block" : "walker") +
               " resume=" +
               (resume_schedule == ScheduleMode::kBlock ? "block" : "walker") +
               " cut=" + std::to_string(cut));
  Sweep sweep{"node2vec", 4, Fetch::kAsync};
  const ScenarioConfig config = BaseScenario(sweep);
  const RunOutput reference = RunWithSchedule(config, ScheduleMode::kWalker);
  const std::string path = testing::TempDir() + "/block_resume_" +
                           std::to_string(cut) + ".ckpt";
  {
    ScenarioConfig victim_config = config;
    victim_config.schedule = victim_schedule;
    CrawlService victim(victim_config);
    for (int i = 0; i < cut && victim.Advance(); ++i) {
    }
    victim.SaveCheckpoint(path);
  }
  ScenarioConfig resumed_config = config;
  resumed_config.schedule = resume_schedule;
  CrawlService resumed(resumed_config);
  resumed.LoadCheckpoint(path);
  while (resumed.Advance()) {
  }
  ExpectResultsBitIdentical(reference.result, resumed.Finish());
  ExpectLedgersBitIdentical(reference.ledgers,
                            resumed.pool().SnapshotBackends());
  std::remove(path.c_str());
}

TEST(BlockSchedulerTest, BlockCheckpointResumesUnderBlock) {
  for (int cut : {1, 3, 6}) {
    CheckResumeAcrossEngines(ScheduleMode::kBlock, ScheduleMode::kBlock, cut);
  }
}

TEST(BlockSchedulerTest, BlockCheckpointResumesUnderWalker) {
  for (int cut : {1, 4}) {
    CheckResumeAcrossEngines(ScheduleMode::kBlock, ScheduleMode::kWalker, cut);
  }
}

TEST(BlockSchedulerTest, WalkerCheckpointResumesUnderBlock) {
  for (int cut : {2, 5}) {
    CheckResumeAcrossEngines(ScheduleMode::kWalker, ScheduleMode::kBlock, cut);
  }
}

TEST(BlockSchedulerTest, ScenarioJsonRoundTrip) {
  const ScenarioConfig config = ScenarioConfig::FromJsonText(R"({
    "dataset": "epinions_small",
    "schedule": "block",
    "block": {"size": 512, "resident": 3, "spill_dir": "seg"}
  })");
  EXPECT_EQ(config.schedule, ScheduleMode::kBlock);
  EXPECT_EQ(config.block_size, 512u);
  EXPECT_EQ(config.resident_blocks, 3u);
  EXPECT_EQ(config.spill_dir, "seg");
}

TEST(BlockSchedulerTest, BlockKnobsWithoutBlockScheduleAreRejected) {
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"block": {"size": 512}})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"schedule": "block", "block": {"size": 0}})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioConfig::FromJsonText(
                   R"({"schedule": "sideways"})"),
               std::invalid_argument);
}

TEST(BlockSchedulerTest, ScheduleIsExcludedFromTheFingerprint) {
  Sweep sweep{"srw", 1, Fetch::kSync};
  ScenarioConfig walker_config = BaseScenario(sweep);
  ScenarioConfig block_config = BaseScenario(sweep);
  block_config.schedule = ScheduleMode::kBlock;
  block_config.block_size = 32;
  block_config.resident_blocks = 7;
  block_config.spill_dir = "elsewhere";
  EXPECT_EQ(walker_config.Fingerprint(), block_config.Fingerprint());
}

}  // namespace
}  // namespace mto
