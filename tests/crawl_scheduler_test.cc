#include "src/runtime/crawl_scheduler.h"

#include <gtest/gtest.h>

#include <array>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/mto_sampler.h"
#include "src/graph/builder.h"
#include "src/graph/generators.h"
#include "src/net/social_network.h"
#include "src/runtime/concurrent_interface_cache.h"
#include "src/service/backend_pool.h"
#include "src/walk/mhrw.h"
#include "src/walk/srw.h"
#include "src/walk/walk_program.h"

namespace mto {
namespace {

constexpr uint64_t kSeed = 0xDECAF;

Graph TestGraph() {
  Rng rng(99);
  return LargestComponent(HolmeKim(400, 3, 0.5, rng));
}

struct CrawlResult {
  std::vector<NodeId> positions;
  std::vector<double> diagnostics;
  uint64_t query_cost = 0;
  uint64_t backend_requests = 0;
  /// Every walker's RNG state after each RunRounds call, in call order.
  std::vector<std::array<uint64_t, 4>> rng_states;
};

template <typename Factory>
CrawlResult RunCrawl(const SocialNetwork& net, const CrawlConfig& config,
             size_t rounds, const Factory& factory,
             size_t max_batch = 16) {
  RestrictedInterface base(net);
  base.SetMaxBatchSize(max_batch);
  ConcurrentInterfaceCache session(base);
  CrawlScheduler scheduler(session, config, kSeed, factory);
  CrawlResult run;
  scheduler.RunRounds(rounds, &run.diagnostics);
  run.positions = scheduler.Positions();
  run.query_cost = session.QueryCost();
  run.backend_requests = session.BackendRequests();
  return run;
}

std::unique_ptr<Sampler> SrwFactory(RestrictedInterface& iface, Rng& rng,
                                    size_t i) {
  return std::make_unique<SimpleRandomWalk>(iface, rng,
                                            static_cast<NodeId>(i));
}

std::unique_ptr<Sampler> MhrwFactory(RestrictedInterface& iface, Rng& rng,
                                     size_t i) {
  return std::make_unique<MetropolisHastingsWalk>(iface, rng,
                                                  static_cast<NodeId>(i));
}

std::unique_ptr<Sampler> MtoFactory(RestrictedInterface& iface, Rng& rng,
                                    size_t i) {
  return std::make_unique<MtoSampler>(iface, rng, static_cast<NodeId>(i));
}

TEST(CrawlSchedulerTest, DeterministicAcrossThreadCounts) {
  SocialNetwork net(TestGraph());
  for (bool coalesce : {false, true}) {
    std::vector<CrawlResult> runs;
    for (size_t threads : {1u, 2u, 8u}) {
      CrawlConfig config{/*num_walkers=*/16, /*num_threads=*/threads,
                         /*coalesce_frontier=*/coalesce};
      runs.push_back(RunCrawl(net, config, 150, SrwFactory));
    }
    EXPECT_EQ(runs[0].positions, runs[1].positions) << "coalesce " << coalesce;
    EXPECT_EQ(runs[1].positions, runs[2].positions) << "coalesce " << coalesce;
    EXPECT_EQ(runs[0].diagnostics, runs[1].diagnostics);
    EXPECT_EQ(runs[1].diagnostics, runs[2].diagnostics);
    EXPECT_EQ(runs[0].query_cost, runs[1].query_cost);
    EXPECT_EQ(runs[1].query_cost, runs[2].query_cost);
  }
}

TEST(CrawlSchedulerTest, CoalescedModeIsBitIdenticalToFreeModeAtEqualCost) {
  SocialNetwork net(TestGraph());
  CrawlConfig free_config{16, 2, /*coalesce_frontier=*/false};
  CrawlConfig batch_config{16, 2, /*coalesce_frontier=*/true};
  CrawlResult free_run = RunCrawl(net, free_config, 150, SrwFactory);
  CrawlResult batch_run = RunCrawl(net, batch_config, 150, SrwFactory);
  EXPECT_EQ(free_run.positions, batch_run.positions);
  EXPECT_EQ(free_run.diagnostics, batch_run.diagnostics);
  // Frontier coalescing only prefetches nodes the commits would query
  // anyway: the paper's unique-query cost is untouched...
  EXPECT_EQ(free_run.query_cost, batch_run.query_cost);
  // ...while the crawl pays for them in far fewer backend round trips.
  EXPECT_LT(batch_run.backend_requests, free_run.backend_requests);
}

TEST(CrawlSchedulerTest, MhrwTwoPhaseMatchesPlainStepping) {
  SocialNetwork net(TestGraph());
  CrawlConfig free_config{8, 1, false};
  CrawlConfig batch_config{8, 4, true};
  CrawlResult a = RunCrawl(net, free_config, 120, MhrwFactory);
  CrawlResult b = RunCrawl(net, batch_config, 120, MhrwFactory);
  EXPECT_EQ(a.positions, b.positions);
  EXPECT_EQ(a.query_cost, b.query_cost);
}

TEST(CrawlSchedulerTest, MtoSpeculativeSteppingIsBitIdenticalAcrossModes) {
  // MtoSampler steps speculatively: ProposeStep peeks the overlay pick
  // (consuming no RNG draws) so the scheduler can prefetch it, and
  // CommitStep replays the full rewiring step against the warm cache.
  // Positions, diagnostics, and unique-query cost must be bit-identical
  // across 1/2/8 threads and both stepping modes.
  SocialNetwork net(TestGraph());
  std::vector<CrawlResult> runs;
  for (size_t threads : {1u, 2u, 8u}) {
    for (bool coalesce : {false, true}) {
      CrawlConfig config{8, threads, coalesce};
      runs.push_back(RunCrawl(net, config, 120, MtoFactory));
    }
  }
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[0].positions, runs[i].positions) << "variant " << i;
    EXPECT_EQ(runs[0].diagnostics, runs[i].diagnostics) << "variant " << i;
    EXPECT_EQ(runs[0].query_cost, runs[i].query_cost) << "variant " << i;
  }
  // Coalescing pays for the same unique queries in fewer round trips: the
  // speculated frontier batches, only re-picks fetch individually.
  const CrawlResult& free_run = runs[0];
  const CrawlResult& coalesced = runs[1];
  EXPECT_LT(coalesced.backend_requests, free_run.backend_requests);
}

TEST(CrawlSchedulerTest, MtoSpeculationMostlyHitsAndMissesAreCounted) {
  SocialNetwork net(TestGraph());
  RestrictedInterface base(net);
  base.SetMaxBatchSize(16);
  ConcurrentInterfaceCache session(base);
  CrawlConfig config{8, 2, /*coalesce_frontier=*/true};
  CrawlScheduler scheduler(session, config, kSeed, MtoFactory);
  scheduler.RunRounds(150);
  uint64_t commits = 0, hits = 0;
  for (size_t i = 0; i < scheduler.size(); ++i) {
    auto& walker = dynamic_cast<MtoSampler&>(scheduler.walker(i));
    commits += walker.speculative_commits();
    hits += walker.speculation_hits();
  }
  // Nearly every round proposes (only the very first, uncached position
  // declines), most speculations validate, and rewiring produces at least
  // some misses on this clustered graph.
  EXPECT_GE(commits, 8u * 149u);
  EXPECT_GT(hits, commits / 2);
  EXPECT_LT(hits, commits);
}

TEST(CrawlSchedulerTest, MatchesSerialRoundRobinStepping) {
  // The scheduler generalizes single-threaded round-robin stepping: same
  // seed, same per-walker Fork streams => same trajectories and cost as a
  // hand-rolled serial loop over one plain interface.
  SocialNetwork net(TestGraph());
  RestrictedInterface serial_iface(net);
  Rng parent(kSeed);
  std::vector<std::unique_ptr<Rng>> rngs;
  std::vector<std::unique_ptr<Sampler>> serial;
  for (size_t i = 0; i < 8; ++i) {
    rngs.push_back(std::make_unique<Rng>(parent.Fork(i)));
    serial.push_back(std::make_unique<SimpleRandomWalk>(
        serial_iface, *rngs.back(), static_cast<NodeId>(i)));
  }
  for (int r = 0; r < 100; ++r) {
    for (auto& w : serial) w->Step();
  }
  std::vector<NodeId> serial_positions;
  for (auto& w : serial) serial_positions.push_back(w->current());

  CrawlConfig config{8, 8, false};
  CrawlResult run = RunCrawl(net, config, 100, SrwFactory);
  EXPECT_EQ(run.positions, serial_positions);
  EXPECT_EQ(run.query_cost, serial_iface.QueryCost());
}

TEST(CrawlSchedulerTest, TrajectoryIndependentOfWalkerCount) {
  // Walker i's stream is a function of (seed, i) only, so walkers 0 and 1
  // walk the same trajectories whether 2, 4, or 8 walkers share the crawl.
  SocialNetwork net(Barbell(11));
  std::vector<std::vector<NodeId>> traces;
  for (size_t count : {2u, 4u, 8u}) {
    RestrictedInterface base(net);
    ConcurrentInterfaceCache session(base);
    CrawlScheduler scheduler(session, CrawlConfig{count, 2, false}, kSeed,
                             SrwFactory);
    std::vector<NodeId> trace;
    for (int r = 0; r < 200; ++r) {
      scheduler.RunRounds(1);
      trace.push_back(scheduler.walker(0).current());
      trace.push_back(scheduler.walker(1).current());
    }
    traces.push_back(std::move(trace));
  }
  EXPECT_EQ(traces[0], traces[1]);
  EXPECT_EQ(traces[1], traces[2]);
}

TEST(CrawlSchedulerTest, ForkedStreamsProduceDistinctTrajectories) {
  // Six walkers share one start node on a complete graph: only their
  // streams differ, and no two trajectories may coincide.
  SocialNetwork net(Complete(12));
  RestrictedInterface base(net);
  ConcurrentInterfaceCache session(base);
  CrawlScheduler scheduler(
      session, CrawlConfig{6, 3, false}, kSeed,
      [](RestrictedInterface& iface, Rng& rng, size_t) {
        return std::make_unique<SimpleRandomWalk>(iface, rng, 0);
      });
  std::vector<std::vector<NodeId>> traj(scheduler.size());
  for (int r = 0; r < 64; ++r) {
    scheduler.RunRounds(1);
    for (size_t i = 0; i < scheduler.size(); ++i) {
      traj[i].push_back(scheduler.walker(i).current());
    }
  }
  for (size_t i = 0; i < traj.size(); ++i) {
    for (size_t j = i + 1; j < traj.size(); ++j) {
      EXPECT_NE(traj[i], traj[j]) << "walkers " << i << " and " << j;
    }
  }
}

TEST(CrawlSchedulerTest, SharedSessionMergesCaches) {
  // Paper Section VI: a region one walker paid for is free for the others.
  // Four walkers on a 16-cycle pay at most 16 unique queries, not
  // walkers x steps.
  SocialNetwork net(Cycle(16));
  RestrictedInterface base(net);
  ConcurrentInterfaceCache session(base);
  CrawlScheduler scheduler(session, CrawlConfig{4, 2, false}, kSeed,
                           SrwFactory);
  scheduler.RunRounds(200);
  EXPECT_LE(session.QueryCost(), 16u);
  EXPECT_GE(session.QueryCost(), 4u);
}

TEST(CrawlSchedulerTest, CollectGathersOneWeightedSamplePerWalker) {
  SocialNetwork net(Star(6));
  RestrictedInterface base(net);
  ConcurrentInterfaceCache session(base);
  CrawlScheduler scheduler(session, CrawlConfig{3, 1, false}, kSeed,
                           SrwFactory);
  std::vector<double> values, weights;
  scheduler.Collect(
      [](Sampler& s) { return static_cast<double>(s.CurrentDegree()); },
      values, weights);
  ASSERT_EQ(values.size(), 3u);
  ASSERT_EQ(weights.size(), 3u);
  EXPECT_DOUBLE_EQ(values[0], 5.0);   // walker 0 starts on the hub
  EXPECT_DOUBLE_EQ(weights[0], 0.2);  // 1/deg
  for (size_t i = 1; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(values[i], 1.0);
    EXPECT_DOUBLE_EQ(weights[i], 1.0);
  }
}

TEST(CrawlSchedulerTest, DiagnosticsAreRoundMajorInWalkerOrder) {
  SocialNetwork net(Star(6));
  RestrictedInterface base(net);
  ConcurrentInterfaceCache session(base);
  CrawlConfig config{3, 2, false};
  CrawlScheduler scheduler(session, config, kSeed, SrwFactory);
  std::vector<double> diag;
  scheduler.RunRounds(4, &diag);
  ASSERT_EQ(diag.size(), 12u);
  scheduler.RunRounds(1, &diag);  // appends
  ASSERT_EQ(diag.size(), 15u);
  // Final round's values must equal the walkers' current diagnostics.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(diag[12 + i],
                     scheduler.walker(i).CurrentDegreeForDiagnostic());
  }
  EXPECT_EQ(scheduler.total_steps(), 15u);
}

/// One crawl of `program` over a BackendPool fleet behind the concurrent
/// cache, free-run or coalesced (pipelined when `depth` > 0), advanced by
/// one RunRounds call per entry of `calls`.
CrawlResult RunProgramCrawl(const SocialNetwork& net, std::string_view program,
                            const std::vector<BackendConfig>& fleet,
                            bool coalesce, size_t threads, size_t depth,
                            std::initializer_list<size_t> calls,
                            uint64_t* failed_fetches = nullptr) {
  RetryPolicy retry;
  retry.max_attempts_per_backend = 1;
  BackendPool pool(net, fleet, retry, BackendSelection::kSharded,
                   /*fault_seed=*/0xFA17);
  pool.SetMaxBatchSize(16);
  ConcurrentInterfaceCache session(pool);
  CrawlConfig config{/*num_walkers=*/16, threads, coalesce};
  config.pipeline_depth = depth;
  config.fetch_threads = 2;
  WalkProgramParams params;
  params.p = 0.5;  // a genuinely second-order node2vec
  params.q = 2.0;
  const WalkProgram& walk = GetWalkProgram(program);
  CrawlScheduler scheduler(
      session, config, kSeed,
      [&](RestrictedInterface& iface, Rng& rng, size_t i) {
        return walk.MakeWalker(iface, rng, static_cast<NodeId>(i), params);
      });
  CrawlResult run;
  for (size_t rounds : calls) {
    scheduler.RunRounds(rounds, &run.diagnostics);
    for (const auto& state : scheduler.SnapshotWalkers()) {
      run.rng_states.push_back(state.rng_state);
    }
  }
  run.positions = scheduler.Positions();
  run.query_cost = session.QueryCost();
  run.backend_requests = session.BackendRequests();
  if (failed_fetches != nullptr) *failed_fetches = pool.FailedFetches();
  return run;
}

constexpr std::string_view kTwoPhasePrograms[] = {"srw", "mhrw", "node2vec",
                                                  "pagerank", "mto"};

TEST(CrawlSchedulerTest, ProposalsNeverCrossARunRoundsCall) {
  // Each coalesced round is one pool region in which walker i commits
  // round r and proposes round r + 1, but the last round of a call
  // proposes nothing. Splitting 10 rounds into calls of 1, 2 and 7 must
  // therefore replay one 10-round call exactly, at every thread count and
  // with the pipeline on or off; and at each call boundary every RNG
  // stream must stand exactly where free-run Step()s leave it, so no
  // proposal for the next call has been drawn.
  SocialNetwork net(TestGraph());
  std::vector<BackendConfig> fleet(2);
  fleet[0].error_rate = 0.2;
  fleet[1].timeout_rate = 0.1;
  for (std::string_view program : kTwoPhasePrograms) {
    SCOPED_TRACE(std::string(program));
    const CrawlResult reference =
        RunProgramCrawl(net, program, fleet, true, 1, 0, {10});
    ASSERT_EQ(reference.diagnostics.size(), 10u * 16u);
    const CrawlResult free_run =
        RunProgramCrawl(net, program, fleet, false, 1, 0, {1, 2, 7});
    EXPECT_EQ(reference.positions, free_run.positions);
    EXPECT_EQ(reference.diagnostics, free_run.diagnostics);
    EXPECT_EQ(reference.query_cost, free_run.query_cost);
    for (size_t depth : {0u, 2u}) {
      for (size_t threads : {1u, 4u, 8u}) {
        SCOPED_TRACE("depth " + std::to_string(depth) + ", threads " +
                     std::to_string(threads));
        const CrawlResult split = RunProgramCrawl(net, program, fleet, true,
                                                  threads, depth, {1, 2, 7});
        EXPECT_EQ(reference.positions, split.positions);
        EXPECT_EQ(reference.diagnostics, split.diagnostics);
        EXPECT_EQ(reference.query_cost, split.query_cost);
        EXPECT_EQ(reference.backend_requests, split.backend_requests);
        EXPECT_EQ(free_run.rng_states, split.rng_states);
      }
    }
  }
}

TEST(CrawlSchedulerTest, RefusedNodesRefetchWhileOtherWalkersCommit) {
  // One key refuses every request and the other fails 40% of nodes for
  // good (one attempt per key, no budget, no pacing), so some start nodes
  // are never cached. A walker standing on one re-fetches it in every
  // propose, which now shares a region with other walkers' commits; the
  // claim protocol must keep every count and trajectory as at 1 thread.
  SocialNetwork net(TestGraph());
  std::vector<BackendConfig> fleet(2);
  fleet[0].error_rate = 1.0;
  fleet[1].error_rate = 0.4;
  for (std::string_view program : kTwoPhasePrograms) {
    SCOPED_TRACE(std::string(program));
    uint64_t reference_failed = 0;
    const CrawlResult reference = RunProgramCrawl(net, program, fleet, true,
                                                  1, 0, {10},
                                                  &reference_failed);
    EXPECT_GT(reference_failed, 0u);
    for (size_t depth : {0u, 2u}) {
      for (size_t threads : {4u, 8u}) {
        SCOPED_TRACE("depth " + std::to_string(depth) + ", threads " +
                     std::to_string(threads));
        uint64_t failed = 0;
        const CrawlResult run = RunProgramCrawl(
            net, program, fleet, true, threads, depth, {10}, &failed);
        EXPECT_EQ(reference.positions, run.positions);
        EXPECT_EQ(reference.diagnostics, run.diagnostics);
        EXPECT_EQ(reference.query_cost, run.query_cost);
        EXPECT_EQ(reference.backend_requests, run.backend_requests);
        EXPECT_EQ(reference_failed, failed);
      }
    }
  }
  // The fleet really strands walkers: some SRW walker never left a start
  // node that was refused every round.
  const CrawlResult srw =
      RunProgramCrawl(net, "srw", fleet, true, 4, 0, {10});
  size_t stranded = 0;
  for (size_t i = 0; i < srw.positions.size(); ++i) {
    if (srw.positions[i] == static_cast<NodeId>(i)) ++stranded;
  }
  EXPECT_GT(stranded, 0u);
}

TEST(CrawlSchedulerTest, RejectsInvalidConfigs) {
  SocialNetwork net(Cycle(4));
  RestrictedInterface iface(net);
  EXPECT_THROW(CrawlScheduler(iface, CrawlConfig{0, 1, false}, kSeed,
                              SrwFactory),
               std::invalid_argument);
  EXPECT_THROW(CrawlScheduler(iface, CrawlConfig{2, 1, false}, kSeed,
                              CrawlScheduler::WalkerFactory()),
               std::invalid_argument);
  EXPECT_THROW(
      CrawlScheduler(iface, CrawlConfig{2, 1, false}, kSeed,
                     [](RestrictedInterface&, Rng&,
                        size_t) -> std::unique_ptr<Sampler> {
                       return nullptr;
                     }),
      std::invalid_argument);
}

}  // namespace
}  // namespace mto
