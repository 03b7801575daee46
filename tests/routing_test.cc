// Rendezvous (highest-random-weight) routing — unit tests for the
// balance-aware backend selection the pipelined engine routes through:
// stable assignment under fleet changes (minimal disruption), load balance
// on skewed node-id populations where `v % N` aliases, and budget-exhausted
// exclusion without refusal churn.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/graph/generators.h"
#include "src/service/backend_pool.h"

namespace mto {
namespace {

constexpr uint64_t kFaultSeed = 0x5C0;

std::vector<BackendConfig> NamedBackends(
    const std::vector<std::string>& names) {
  std::vector<BackendConfig> backends(names.size());
  for (size_t b = 0; b < names.size(); ++b) backends[b].name = names[b];
  return backends;
}

/// Assignment of each id under a fresh rendezvous pool with this fleet,
/// reported as backend *names* so fleets of different sizes compare.
std::vector<std::string> AssignmentsByName(
    const SocialNetwork& net, const std::vector<std::string>& names,
    const std::vector<NodeId>& ids) {
  BackendPool pool(net, NamedBackends(names), RetryPolicy{},
                   BackendSelection::kRendezvous, kFaultSeed);
  const auto plan = pool.PlanPrefetch(ids);
  EXPECT_TRUE(plan.has_value());
  std::vector<std::string> out;
  out.reserve(ids.size());
  for (uint32_t b : *plan) {
    out.push_back(b == UINT32_MAX ? "<none>" : names[b]);
  }
  return out;
}

TEST(RoutingTest, AddingABackendOnlyMovesNodesItWins) {
  // The rendezvous property: growing the fleet from {alpha, beta, gamma}
  // to {alpha, beta, gamma, delta} reassigns exactly the nodes whose new
  // top scorer is delta — every other node keeps its backend. (`v % N`
  // remaps ~3/4 of all nodes on the same change.)
  SocialNetwork net(Grid(32, 32));  // 1024 nodes
  std::vector<NodeId> ids;
  for (NodeId v = 0; v < 500; ++v) ids.push_back(v);
  const auto small = AssignmentsByName(net, {"alpha", "beta", "gamma"}, ids);
  const auto grown =
      AssignmentsByName(net, {"alpha", "beta", "gamma", "delta"}, ids);
  size_t moved = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (grown[i] == "delta") {
      ++moved;
    } else {
      EXPECT_EQ(grown[i], small[i]) << "node " << ids[i] << " moved between "
                                    << "surviving backends";
    }
  }
  // delta should win roughly 1/4 of the nodes (binomial around 125/500) —
  // wide bounds, this pins the hash spreads rather than an exact share.
  EXPECT_GE(moved, 80u);
  EXPECT_LE(moved, 170u);
}

TEST(RoutingTest, RemovingABackendOnlyMovesItsOwnNodes) {
  SocialNetwork net(Grid(32, 32));
  std::vector<NodeId> ids;
  for (NodeId v = 0; v < 500; ++v) ids.push_back(v);
  const auto full = AssignmentsByName(net, {"alpha", "beta", "gamma"}, ids);
  const auto shrunk = AssignmentsByName(net, {"alpha", "beta"}, ids);
  for (size_t i = 0; i < ids.size(); ++i) {
    if (full[i] != "gamma") {
      EXPECT_EQ(shrunk[i], full[i])
          << "node " << ids[i] << " moved though its backend survived";
    }
  }
}

TEST(RoutingTest, SpreadsStridedNodeIdsWhereShardingAliases) {
  // Node-id populations with structure — every 4th id, as a partitioned
  // crawl would produce — collapse onto one backend under `v % N` but
  // spread uniformly under the rendezvous hash.
  SocialNetwork net(Grid(32, 32));
  const std::vector<std::string> names = {"a", "b", "c", "d"};
  std::vector<NodeId> ids;
  for (NodeId v = 0; v < 1024; v += 4) ids.push_back(v);  // 256 ids, all ≡ 0 (mod 4)

  BackendPool sharded(net, NamedBackends(names), RetryPolicy{},
                      BackendSelection::kSharded, kFaultSeed);
  const auto sharded_plan = sharded.PlanPrefetch(ids);
  ASSERT_TRUE(sharded_plan.has_value());
  for (uint32_t b : *sharded_plan) EXPECT_EQ(b, 0u);  // total aliasing

  BackendPool rendezvous(net, NamedBackends(names), RetryPolicy{},
                         BackendSelection::kRendezvous, kFaultSeed);
  const auto rdv_plan = rendezvous.PlanPrefetch(ids);
  ASSERT_TRUE(rdv_plan.has_value());
  std::vector<size_t> counts(4, 0);
  for (uint32_t b : *rdv_plan) {
    ASSERT_LT(b, 4u);
    ++counts[b];
  }
  for (size_t b = 0; b < 4; ++b) {
    // Expected 64 of 256 per backend; ±5σ bounds.
    EXPECT_GE(counts[b], 32u) << "backend " << b;
    EXPECT_LE(counts[b], 104u) << "backend " << b;
  }
}

TEST(RoutingTest, SpentBudgetExcludesBackendWithoutRefusals) {
  // A rendezvous backend whose budget is spent is partitioned out of
  // primary duty: its nodes route to the next scorer with a clean request,
  // not via a refusal op. (Sharded keeps the historical refusal-then-fail-
  // over behavior; the contrast is asserted below.)
  SocialNetwork net(Grid(32, 32));
  std::vector<BackendConfig> backends = NamedBackends({"alpha", "beta"});
  backends[0].budget = 2;
  BackendPool pool(net, backends, RetryPolicy{},
                   BackendSelection::kRendezvous, kFaultSeed);
  // Collect nodes whose fresh-pool top scorer is alpha.
  std::vector<NodeId> alpha_nodes;
  for (NodeId v = 0; v < 200 && alpha_nodes.size() < 4; ++v) {
    const auto plan = pool.PlanPrefetch({&v, 1});
    ASSERT_TRUE(plan.has_value());
    if ((*plan)[0] == 0u) alpha_nodes.push_back(v);
  }
  ASSERT_EQ(alpha_nodes.size(), 4u);
  ASSERT_TRUE(pool.Query(alpha_nodes[0]).has_value());
  ASSERT_TRUE(pool.Query(alpha_nodes[1]).has_value());
  EXPECT_EQ(pool.backend_stats(0).unique_queries, 2u);  // budget spent
  // Preview and reality agree: alpha's nodes now go to beta...
  const auto after = pool.PlanPrefetch({&alpha_nodes[2], 1});
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ((*after)[0], 1u);
  ASSERT_TRUE(pool.Query(alpha_nodes[2]).has_value());
  // ...with zero refusal ops charged anywhere (no faults in this fleet).
  EXPECT_EQ(pool.backend_stats(0).budget_refusals, 0u);
  EXPECT_EQ(pool.backend_stats(1).budget_refusals, 0u);
  EXPECT_LE(pool.backend_stats(0).unique_queries, 2u);  // never overdrawn

  // Sharded twin under the same exhaustion pattern: the spent primary
  // answers with a refusal before failing over — the churn rendezvous
  // avoids.
  std::vector<BackendConfig> sharded_backends = NamedBackends({"alpha", "beta"});
  sharded_backends[0].budget = 2;
  BackendPool sharded(net, sharded_backends, RetryPolicy{},
                      BackendSelection::kSharded, kFaultSeed);
  ASSERT_TRUE(sharded.Query(0).has_value());  // even ids shard to alpha
  ASSERT_TRUE(sharded.Query(2).has_value());
  ASSERT_TRUE(sharded.Query(4).has_value());  // spent: refusal, then beta
  EXPECT_GT(sharded.backend_stats(0).budget_refusals, 0u);
}

TEST(RoutingTest, AllBudgetsSpentPlansNothingAndRefusesLoudly) {
  SocialNetwork net(Grid(32, 32));
  std::vector<BackendConfig> backends = NamedBackends({"alpha", "beta"});
  backends[0].budget = 1;
  backends[1].budget = 1;
  BackendPool pool(net, backends, RetryPolicy{},
                   BackendSelection::kRendezvous, kFaultSeed);
  ASSERT_TRUE(pool.Query(0).has_value());
  ASSERT_TRUE(pool.Query(1).has_value());
  EXPECT_EQ(pool.QueryCost(), 2u);
  // Both keys spent: the preview reports "no backend" for every id...
  const NodeId probe = 7;
  const auto plan = pool.PlanPrefetch({&probe, 1});
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ((*plan)[0], UINT32_MAX);
  // ...and a real fetch is permanently refused, with the refusals recorded
  // on the ledgers (the spent keys stay reachable as a last resort so an
  // all-spent pool fails loudly rather than silently).
  EXPECT_FALSE(pool.Query(probe).has_value());
  EXPECT_GT(pool.FailedFetches(), 0u);
  EXPECT_GT(pool.backend_stats(0).budget_refusals +
                pool.backend_stats(1).budget_refusals,
            0u);
  EXPECT_EQ(pool.QueryCost(), 2u);  // refused fetches cost nothing
}

}  // namespace
}  // namespace mto
