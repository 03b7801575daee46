// Tests for the Section VI extensions: parallel walks, the BFS (snowball)
// baseline, and collision-based network-size estimation.

#include <gtest/gtest.h>

#include <cmath>

#include "src/core/mto_sampler.h"
#include "src/estimate/size_estimator.h"
#include "src/graph/datasets.h"
#include "src/graph/generators.h"
#include "src/mcmc/diagnostics.h"
#include "src/runtime/concurrent_interface_cache.h"
#include "src/runtime/crawl_scheduler.h"
#include "src/walk/snowball.h"
#include "src/walk/srw.h"

namespace mto {
namespace {

TEST(ParallelWalksTest, MultiChainDiagnosticConverges) {
  // The point of parallel walks: R-hat over per-walker degree traces
  // certifies convergence without a single long chain.
  SocialNetwork net(MakeDataset("epinions_small"));
  RestrictedInterface base(net);
  ConcurrentInterfaceCache session(base);
  CrawlScheduler scheduler(
      session, CrawlConfig{4, 2, false}, /*seed=*/3,
      [](RestrictedInterface& iface, Rng& rng, size_t) {
        return std::make_unique<MtoSampler>(
            iface, rng, static_cast<NodeId>(rng.UniformInt(iface.num_users())));
      });
  MultiChainMonitor monitor(4, 1.15, 100, 25);
  bool converged = false;
  std::vector<double> diagnostics;
  for (int step = 0; step < 4000 && !converged; ++step) {
    diagnostics.clear();
    scheduler.RunRounds(1, &diagnostics);
    for (size_t c = 0; c < scheduler.size(); ++c) {
      monitor.Add(c, diagnostics[c]);
    }
    converged = monitor.Converged();
  }
  EXPECT_TRUE(converged);
}

TEST(SnowballTest, VisitsEachNodeOnce) {
  Graph g = Barbell(5);
  SocialNetwork net(g);
  RestrictedInterface iface(net);
  Rng rng(5);
  SnowballCrawler bfs(iface, rng, 0);
  std::vector<int> visits(g.num_nodes(), 0);
  for (NodeId i = 0; i < g.num_nodes(); ++i) ++visits[bfs.Step()];
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(visits[v], 1) << "node " << v;
  }
  EXPECT_EQ(bfs.Visited(), g.num_nodes());
  EXPECT_EQ(bfs.FrontierSize(), 0u);
  // Exhausted frontier: the crawler stays put.
  NodeId last = bfs.current();
  EXPECT_EQ(bfs.Step(), last);
}

TEST(SnowballTest, BfsOrderFromSeed) {
  Graph g = Path(6);
  SocialNetwork net(g);
  RestrictedInterface iface(net);
  Rng rng(6);
  SnowballCrawler bfs(iface, rng, 0);
  for (NodeId expected = 0; expected < 6; ++expected) {
    EXPECT_EQ(bfs.Step(), expected);  // a path is visited in order
  }
}

TEST(SnowballTest, EarlySamplesAreDegreeBiasedNearSeed) {
  // The textbook snowball bias: the first crawled nodes around a hub seed
  // over-represent the hub's dense neighborhood relative to the population.
  SocialNetwork net(MakeDataset("epinions_small"));
  const Graph& g = net.graph();
  NodeId hub = 0;
  for (NodeId v = 1; v < g.num_nodes(); ++v) {
    if (g.Degree(v) > g.Degree(hub)) hub = v;
  }
  RestrictedInterface iface(net);
  Rng rng(7);
  SnowballCrawler bfs(iface, rng, hub);
  double sum = 0.0;
  const int kEarly = 200;
  for (int i = 0; i < kEarly; ++i) {
    bfs.Step();
    sum += bfs.CurrentDegreeForDiagnostic();
  }
  // The direction of the bias depends on what surrounds the seed (here the
  // hub's neighborhood is dominated by lower-degree micro-clique members);
  // the robust claim is that the unweighted early-crawl mean is *off*.
  const double bias =
      std::abs(sum / kEarly - net.TrueAverageDegree()) / net.TrueAverageDegree();
  EXPECT_GT(bias, 0.08)
      << "early snowball average should be biased away from the population mean";
}

TEST(SizeEstimatorTest, NotReadyBeforeCollision) {
  SizeEstimator est;
  est.Add(1, 4);
  est.Add(2, 4);
  EXPECT_FALSE(est.Ready());
  EXPECT_THROW(est.Estimate(), std::logic_error);
  est.Add(1, 4);  // collision
  EXPECT_TRUE(est.Ready());
  EXPECT_EQ(est.collisions(), 1u);
}

TEST(SizeEstimatorTest, ZeroDegreeThrows) {
  SizeEstimator est;
  EXPECT_THROW(est.Add(0, 0), std::invalid_argument);
}

TEST(SizeEstimatorTest, RegularGraphReducesToBirthdayProblem) {
  // On a d-regular graph the estimator is n²_samples-ish / (2 C) which is
  // the classical birthday estimator; exact identity: (n·d)(n/d)/(2C).
  SizeEstimator est;
  est.Add(5, 3);
  est.Add(9, 3);
  est.Add(5, 3);
  est.Add(9, 3);
  // collisions = 2, samples = 4: estimate = (4*3)*(4/3)/(2*2) = 4.
  EXPECT_DOUBLE_EQ(est.Estimate(), 4.0);
}

TEST(SizeEstimatorTest, EstimatesNetworkSizeFromSrwSamples) {
  SocialNetwork net(MakeDataset("epinions_small"));
  RestrictedInterface iface(net);
  Rng rng(8);
  SimpleRandomWalk walk(iface, rng, 0);
  for (int i = 0; i < 500; ++i) walk.Step();  // burn-in
  // Katzir's estimator assumes (near-)independent draws from π; thin the
  // walk so consecutive samples decorrelate, otherwise the local revisits
  // inflate the collision count and the size is badly under-estimated.
  SizeEstimator est;
  for (int i = 0; i < 3000; ++i) {
    for (int t = 0; t < 25; ++t) walk.Step();
    est.Add(walk.current(), walk.CurrentDegree());
  }
  ASSERT_TRUE(est.Ready());
  double n_hat = est.Estimate();
  double n_true = static_cast<double>(net.num_users());
  EXPECT_NEAR(n_hat, n_true, n_true * 0.35)
      << "collision estimate " << n_hat << " vs true " << n_true;
}

}  // namespace
}  // namespace mto
