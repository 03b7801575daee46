#include "src/service/crawl_service.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace mto {
namespace {

/// Small but non-trivial scenario: faults on, multiple backends, sharded
/// selection (the interleaving-independent ledger assignment).
ScenarioConfig FaultyScenario() {
  ScenarioConfig config;
  config.dataset = "epinions_small";
  config.seed = 0xABCD;
  config.program.name = "srw";
  config.num_walkers = 8;
  config.num_threads = 1;
  config.geweke_check_every = 20;
  config.geweke_min_length = 40;
  config.max_burn_in_rounds = 200;
  config.num_samples = 32;
  config.thinning = 5;
  config.fault_seed = 0xFA17;
  config.retry.max_attempts_per_backend = 12;
  config.backends.resize(3);
  config.backends[0].error_rate = 0.2;
  config.backends[0].latency_mean_us = 150;
  config.backends[0].latency_sigma = 0.4;
  config.backends[1].timeout_rate = 0.1;
  config.backends[1].rate_per_sec = 5000.0;
  config.backends[1].burst = 16.0;
  config.backends[2].quota_rate = 0.15;
  return config;
}

std::string TempCheckpointPath(const char* tag) {
  return testing::TempDir() + "/crawl_service_test_" + tag + ".ckpt";
}

void ExpectBitIdentical(const ServiceResult& a, const ServiceResult& b) {
  EXPECT_EQ(a.samples, b.samples);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].query_cost, b.trace[i].query_cost) << "trace " << i;
    EXPECT_EQ(a.trace[i].estimate, b.trace[i].estimate) << "trace " << i;
  }
  EXPECT_EQ(a.final_estimate, b.final_estimate);  // bitwise, not NEAR
  EXPECT_EQ(a.burn_in_converged, b.burn_in_converged);
  EXPECT_EQ(a.burn_in_rounds, b.burn_in_rounds);
  EXPECT_EQ(a.burn_in_query_cost, b.burn_in_query_cost);
  EXPECT_EQ(a.total_rounds, b.total_rounds);
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.total_query_cost, b.total_query_cost);
  EXPECT_EQ(a.failed_fetches, b.failed_fetches);
  ASSERT_EQ(a.backend_stats.size(), b.backend_stats.size());
  for (size_t i = 0; i < a.backend_stats.size(); ++i) {
    EXPECT_EQ(a.backend_stats[i].unique_queries,
              b.backend_stats[i].unique_queries)
        << "backend " << i;
  }
}

/// Runs to completion, interrupting after `kill_after_units` units: saves a
/// checkpoint there, destroys the service ("crash"), and resumes in a fresh
/// one built from the same config.
ServiceResult RunWithKillAndResume(const ScenarioConfig& config,
                                   size_t kill_after_units,
                                   const std::string& path) {
  {
    CrawlService victim(config);
    for (size_t i = 0; i < kill_after_units && victim.Advance(); ++i) {
    }
    victim.SaveCheckpoint(path);
    // Destructor = crash: everything in memory is lost.
  }
  CrawlService resumed(config);
  resumed.LoadCheckpoint(path);
  while (resumed.Advance()) {
  }
  return resumed.Finish();
}

TEST(CrawlServiceTest, RunsFaultyScenarioToCompletion) {
  ScenarioConfig config = FaultyScenario();
  CrawlService service(config);
  ServiceResult result = service.Run();
  EXPECT_EQ(result.samples.size(), 32u);
  EXPECT_TRUE(result.burn_in_converged);
  EXPECT_GT(result.total_query_cost, 0u);
  EXPECT_GT(result.backend_requests, result.total_query_cost);  // retries
  ASSERT_EQ(result.backend_stats.size(), 3u);
  uint64_t unique_sum = 0, faults = 0;
  for (const BackendStats& stats : result.backend_stats) {
    unique_sum += stats.unique_queries;
    faults += stats.failed_requests;
  }
  EXPECT_EQ(unique_sum, result.total_query_cost);
  EXPECT_GT(faults, 0u);  // the fault injector actually fired
  EXPECT_GT(result.simulated_time_us, 0u);
}

TEST(CrawlServiceTest, DuplicateBackendNamesAreRejectedAtConstruction) {
  // Scenario parsing keeps names as written; the pool rejects twins once
  // empty names have defaulted to key-<index>, so a spent twin can never
  // mask its sibling's budget in the per-backend gauges.
  for (const char* backends :
       {R"([{"name": "us-east"}, {"name": "us-east"}])",
        R"([{"name": "key-1"}, {}])"}) {
    SCOPED_TRACE(backends);
    const ScenarioConfig config = ScenarioConfig::FromJsonText(
        std::string(R"({"backends": )") + backends + "}");
    EXPECT_THROW(CrawlService{config}, std::invalid_argument);
  }
}

TEST(CrawlServiceTest, ResumeIsBitIdenticalAtEveryKillPoint) {
  ScenarioConfig config = FaultyScenario();
  const ServiceResult uninterrupted = CrawlService(config).Run();
  const std::string path = TempCheckpointPath("kill_points");
  // Kill points spanning burn-in (epochs) and sampling (collection rounds).
  for (size_t kill_after : {0u, 1u, 2u, 5u, 9u, 20u}) {
    SCOPED_TRACE("kill_after=" + std::to_string(kill_after));
    ExpectBitIdentical(uninterrupted,
                       RunWithKillAndResume(config, kill_after, path));
  }
  std::remove(path.c_str());
}

TEST(CrawlServiceTest, ResumeIsBitIdenticalUnderMultiThreadScheduling) {
  ScenarioConfig config = FaultyScenario();
  const ServiceResult uninterrupted = CrawlService(config).Run();
  const std::string path = TempCheckpointPath("threads");
  // Interrupt a 4-thread crawl, resume on 4 threads.
  config.num_threads = 4;
  ExpectBitIdentical(uninterrupted, RunWithKillAndResume(config, 3, path));
  // A 1-thread checkpoint resumes on 4 threads (and vice versa): the
  // fingerprint deliberately ignores execution shape.
  {
    ScenarioConfig one_thread = config;
    one_thread.num_threads = 1;
    CrawlService victim(one_thread);
    victim.Advance();
    victim.Advance();
    victim.SaveCheckpoint(path);
  }
  CrawlService resumed(config);  // 4 threads
  resumed.LoadCheckpoint(path);
  while (resumed.Advance()) {
  }
  ExpectBitIdentical(uninterrupted, resumed.Finish());
  std::remove(path.c_str());
}

TEST(CrawlServiceTest, ResumeIsBitIdenticalInCoalescedMode) {
  ScenarioConfig config = FaultyScenario();
  config.coalesce_frontier = true;
  config.num_threads = 2;
  const ServiceResult uninterrupted = CrawlService(config).Run();
  const std::string path = TempCheckpointPath("coalesced");
  ExpectBitIdentical(uninterrupted, RunWithKillAndResume(config, 4, path));
  std::remove(path.c_str());

  // Stepping mode does not change results either (runtime contract carries
  // through the service layer, faults included).
  ScenarioConfig free_run = config;
  free_run.coalesce_frontier = false;
  ExpectBitIdentical(uninterrupted, CrawlService(free_run).Run());
}

TEST(CrawlServiceTest, PeriodicCheckpointsDuringRunAreResumable) {
  ScenarioConfig config = FaultyScenario();
  config.checkpoint.path = TempCheckpointPath("periodic");
  config.checkpoint.every_units = 3;
  const ServiceResult full = CrawlService(config).Run();
  // The last periodic checkpoint is some mid-run state; resuming it must
  // converge to the same result.
  CrawlService resumed(config);
  resumed.LoadCheckpoint(config.checkpoint.path);
  while (resumed.Advance()) {
  }
  ExpectBitIdentical(full, resumed.Finish());
  std::remove(config.checkpoint.path.c_str());
}

TEST(CrawlServiceTest, MhrwScenarioAlsoResumesBitIdentically) {
  ScenarioConfig config = FaultyScenario();
  config.program.name = "mhrw";
  config.num_threads = 2;
  const ServiceResult uninterrupted = CrawlService(config).Run();
  const std::string path = TempCheckpointPath("mhrw");
  ExpectBitIdentical(uninterrupted, RunWithKillAndResume(config, 6, path));
  std::remove(path.c_str());
}

TEST(CrawlServiceTest, MtoScenarioResumesBitIdenticallyAtEveryKillPoint) {
  // The paper's own sampler, with its mutable overlay in the checkpoint
  // image: kill points span mid-burn-in (mid-rewire — the overlay is a
  // half-classified work in progress) and the sampling phase (frozen
  // overlay), under injected faults.
  ScenarioConfig config = FaultyScenario();
  config.program.name = "mto";
  const ServiceResult uninterrupted = CrawlService(config).Run();
  const std::string path = TempCheckpointPath("mto_kill_points");
  for (size_t kill_after : {0u, 1u, 2u, 5u, 9u, 20u}) {
    SCOPED_TRACE("kill_after=" + std::to_string(kill_after));
    ExpectBitIdentical(uninterrupted,
                       RunWithKillAndResume(config, kill_after, path));
  }
  std::remove(path.c_str());
}

TEST(CrawlServiceTest, MtoScenarioIsBitIdenticalAcrossThreadsAndModes) {
  // The acceptance invariant for speculative stepping carried through the
  // whole stack: an MTO crawl under CrawlScheduler with frontier
  // coalescing produces bit-identical samples/trace/cost across 1/2/8
  // threads and both stepping modes — and a coalesced multi-thread victim
  // resumes bit-identically.
  ScenarioConfig config = FaultyScenario();
  config.program.name = "mto";
  const ServiceResult reference = CrawlService(config).Run();
  for (size_t threads : {2u, 8u}) {
    for (bool coalesce : {false, true}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " coalesce=" +
                   std::to_string(coalesce));
      ScenarioConfig variant = config;
      variant.num_threads = threads;
      variant.coalesce_frontier = coalesce;
      ExpectBitIdentical(reference, CrawlService(variant).Run());
    }
  }
  ScenarioConfig coalesced = config;
  coalesced.num_threads = 2;
  coalesced.coalesce_frontier = true;
  const std::string path = TempCheckpointPath("mto_coalesced");
  ExpectBitIdentical(reference, RunWithKillAndResume(coalesced, 4, path));
  std::remove(path.c_str());
}

TEST(CrawlServiceTest, MtoPeriodicCheckpointsDuringRunAreResumable) {
  ScenarioConfig config = FaultyScenario();
  config.program.name = "mto";
  config.checkpoint.path = TempCheckpointPath("mto_periodic");
  config.checkpoint.every_units = 3;
  const ServiceResult full = CrawlService(config).Run();
  CrawlService resumed(config);
  resumed.LoadCheckpoint(config.checkpoint.path);
  while (resumed.Advance()) {
  }
  ExpectBitIdentical(full, resumed.Finish());
  std::remove(config.checkpoint.path.c_str());
}

TEST(CrawlServiceTest, LoadCheckpointGuards) {
  ScenarioConfig config = FaultyScenario();
  const std::string path = TempCheckpointPath("guards");
  {
    CrawlService service(config);
    service.Advance();
    service.SaveCheckpoint(path);
    // A service that already ran refuses to load.
    EXPECT_THROW(service.LoadCheckpoint(path), std::logic_error);
  }
  // A different scenario refuses the checkpoint (fingerprint mismatch).
  ScenarioConfig other = config;
  other.seed = 999;
  CrawlService mismatched(other);
  EXPECT_THROW(mismatched.LoadCheckpoint(path), std::runtime_error);
  // Corrupt file refuses to parse.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "not a checkpoint";
  }
  CrawlService fresh(config);
  EXPECT_THROW(fresh.LoadCheckpoint(path), std::runtime_error);
  std::remove(path.c_str());
  EXPECT_THROW(fresh.LoadCheckpoint(path), std::runtime_error);
}

TEST(CrawlServiceTest, MtoOverlaysFreezeWhenBurnInEnds) {
  // Sampling draws from a frozen overlay: every MTO walker's rewiring stops
  // at the burn-in/sampling boundary, and not before.
  ScenarioConfig config = FaultyScenario();
  config.program.name = "mto";
  config.num_threads = 4;
  config.geweke_min_length = 400;  // burn-in spans several units
  CrawlService service(config);
  const auto all_frozen = [&] {
    for (size_t i = 0; i < service.scheduler().size(); ++i) {
      if (!dynamic_cast<MtoSampler&>(service.scheduler().walker(i)).frozen()) {
        return false;
      }
    }
    return true;
  };
  ASSERT_TRUE(service.Advance());
  ASSERT_EQ(service.phase(), CrawlPhase::kBurnIn);
  EXPECT_FALSE(all_frozen());
  while (service.phase() == CrawlPhase::kBurnIn) ASSERT_TRUE(service.Advance());
  EXPECT_TRUE(all_frozen());
  const ServiceResult result = service.Run();
  EXPECT_GT(result.final_estimate, 0.0);
  EXPECT_LE(result.burn_in_query_cost, result.total_query_cost);
}

TEST(CrawlServiceTest, SampleCountRoundsUpToWholeCollectionRounds) {
  ScenarioConfig config = FaultyScenario();
  config.num_samples = 10;  // not a multiple of 8 walkers
  const ServiceResult result = CrawlService(config).Run();
  EXPECT_EQ(result.samples.size(), 16u);  // 2 rounds x 8 walkers
  EXPECT_EQ(result.trace.size(), 16u);
}

TEST(CrawlServiceTest, SrwEstimatesAverageDegreeReasonably) {
  ScenarioConfig config = FaultyScenario();
  config.num_threads = 4;
  config.num_samples = 400;
  config.backends.clear();  // one perfect key
  CrawlService service(config);
  const ServiceResult result = service.Run();
  EXPECT_TRUE(result.burn_in_converged);
  const double truth = service.network().TrueAverageDegree();
  EXPECT_LT(std::abs(result.final_estimate - truth) / truth, 0.35);
  for (size_t i = 1; i < result.trace.size(); ++i) {
    EXPECT_GE(result.trace[i].query_cost, result.trace[i - 1].query_cost);
  }
}

TEST(CrawlServiceTest, AdvanceAfterFinishIsRefused) {
  // Finish() freezes the result surface: a later Advance() runs no unit and
  // returns false at once, whether the crawl stopped in burn-in (a 1e-6
  // threshold keeps it there) or in collection.
  ScenarioConfig burn_in = FaultyScenario();
  burn_in.geweke_threshold = 1e-6;
  ScenarioConfig collect = FaultyScenario();
  collect.max_burn_in_rounds = collect.geweke_check_every;  // one epoch
  for (const auto& [config, phase] :
       {std::pair{burn_in, CrawlPhase::kBurnIn},
        std::pair{collect, CrawlPhase::kSampling}}) {
    CrawlService service(config);
    ASSERT_TRUE(service.Advance());
    ASSERT_TRUE(service.Advance());
    ASSERT_EQ(service.phase(), phase);
    const ServiceResult frozen = service.Finish();
    EXPECT_FALSE(service.Advance());
    EXPECT_FALSE(service.Advance());
    EXPECT_EQ(service.rounds(), frozen.total_rounds);
    ExpectBitIdentical(frozen, service.Finish());
  }
}

TEST(CrawlServiceTest, ResultReportAndGaugeShareOneEstimate) {
  // One running estimate feeds the result, the mid-run report and the
  // estimate.current gauge, so all three agree bit for bit.
  ScenarioConfig config = FaultyScenario();
  config.observability.metrics = true;
  config.observability.snapshot_every_units = 1;
  CrawlService service(config);
  const auto gauge_of =
      [](const obs::StatsSnapshot& snapshot) -> std::optional<double> {
    for (const obs::MetricSnapshot& metric : snapshot.metrics) {
      if (metric.name == "estimate.current") return metric.dgauge;
    }
    return std::nullopt;
  };
  size_t compared = 0;
  while (service.Advance()) {
    const JsonValue report = service.RunReport();
    ASSERT_FALSE(report.At("status").At("finished").AsBool());
    const double reported = report.At("result").At("final_estimate").AsDouble();
    const std::optional<double> gauge = gauge_of(service.snapshots().back());
    if (!gauge.has_value()) {
      // No sample yet: nothing published, and the report reads 0.
      EXPECT_EQ(report.At("result").At("num_samples").AsUint(), 0u);
      EXPECT_EQ(reported, 0.0);
      continue;
    }
    EXPECT_EQ(std::bit_cast<uint64_t>(reported),
              std::bit_cast<uint64_t>(*gauge));
    ++compared;
  }
  EXPECT_GT(compared, 0u);
  const ServiceResult result = service.Finish();
  ASSERT_NE(service.metrics(), nullptr);
  EXPECT_EQ(
      std::bit_cast<uint64_t>(service.metrics()->DoubleGaugeValue(
          "estimate.current")),
      std::bit_cast<uint64_t>(result.final_estimate));
  EXPECT_EQ(std::bit_cast<uint64_t>(result.trace.back().estimate),
            std::bit_cast<uint64_t>(result.final_estimate));
}

TEST(CrawlServiceTest, BudgetedScenarioStopsAtPoolCap) {
  ScenarioConfig config = FaultyScenario();
  config.total_budget = 500;
  CrawlService service(config);
  ServiceResult result = service.Run();
  EXPECT_LE(result.total_query_cost, 500u);
}

}  // namespace
}  // namespace mto
