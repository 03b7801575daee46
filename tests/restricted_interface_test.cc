#include "src/net/restricted_interface.h"

#include <gtest/gtest.h>

#include "src/graph/generators.h"

namespace mto {
namespace {

class RestrictedInterfaceTest : public testing::Test {
 protected:
  RestrictedInterfaceTest() : net_(Barbell(4)), iface_(net_) {}
  SocialNetwork net_;
  RestrictedInterface iface_;
};

TEST_F(RestrictedInterfaceTest, QueryReturnsNeighbors) {
  auto r = iface_.Query(0);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->user, 0u);
  EXPECT_EQ(r->degree(), net_.graph().Degree(0));
  for (NodeId v : r->neighbors) EXPECT_TRUE(net_.graph().HasEdge(0, v));
}

TEST_F(RestrictedInterfaceTest, UniqueQueryCostOnly) {
  iface_.Query(0);
  iface_.Query(0);
  iface_.Query(0);
  EXPECT_EQ(iface_.QueryCost(), 1u);
  EXPECT_EQ(iface_.TotalRequests(), 3u);
  iface_.Query(1);
  EXPECT_EQ(iface_.QueryCost(), 2u);
}

TEST_F(RestrictedInterfaceTest, CachedDegreeOnlyAfterQuery) {
  EXPECT_FALSE(iface_.CachedDegree(2).has_value());
  iface_.Query(2);
  ASSERT_TRUE(iface_.CachedDegree(2).has_value());
  EXPECT_EQ(*iface_.CachedDegree(2), net_.graph().Degree(2));
}

TEST_F(RestrictedInterfaceTest, IsCachedTracksQueries) {
  EXPECT_FALSE(iface_.IsCached(3));
  iface_.Query(3);
  EXPECT_TRUE(iface_.IsCached(3));
}

TEST_F(RestrictedInterfaceTest, BudgetBlocksNewQueriesOnly) {
  iface_.SetBudget(2);
  EXPECT_TRUE(iface_.Query(0).has_value());
  EXPECT_TRUE(iface_.Query(1).has_value());
  EXPECT_FALSE(iface_.Query(2).has_value());   // budget exhausted
  EXPECT_TRUE(iface_.Query(0).has_value());    // cache hit still answers
  EXPECT_EQ(iface_.QueryCost(), 2u);
}

TEST_F(RestrictedInterfaceTest, UnknownUserThrows) {
  EXPECT_THROW(iface_.Query(100), std::invalid_argument);
}

TEST_F(RestrictedInterfaceTest, RandomUserCostsOneQuery) {
  Rng rng(5);
  auto r = iface_.RandomUser(rng);
  ASSERT_TRUE(r.has_value());
  EXPECT_LT(r->user, net_.num_users());
  EXPECT_EQ(iface_.QueryCost(), 1u);
  // A draw of an already-cached user costs nothing: query the id a copy of
  // the generator will draw next, then draw it.
  Rng copy = rng;
  const auto next = static_cast<NodeId>(copy.UniformInt(net_.num_users()));
  ASSERT_TRUE(iface_.QueryRef(next).has_value());
  const uint64_t cost = iface_.QueryCost();
  auto again = iface_.RandomUser(rng);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->user, next);
  EXPECT_EQ(iface_.QueryCost(), cost);
}

TEST_F(RestrictedInterfaceTest, ResetClearsState) {
  iface_.Query(0);
  iface_.Query(1);
  iface_.Reset();
  EXPECT_EQ(iface_.QueryCost(), 0u);
  EXPECT_EQ(iface_.TotalRequests(), 0u);
  EXPECT_FALSE(iface_.IsCached(0));
}

TEST_F(RestrictedInterfaceTest, NumUsersPublic) {
  EXPECT_EQ(iface_.num_users(), 8u);
}

TEST_F(RestrictedInterfaceTest, OutOfRangeIdsAreSimplyNotCached) {
  // Regression: IsCached/CachedDegree used to index cached_[v] unchecked,
  // so any id >= num_users() was undefined behavior.
  EXPECT_FALSE(iface_.IsCached(8));
  EXPECT_FALSE(iface_.IsCached(0xFFFFFFFFu));
  EXPECT_FALSE(iface_.CachedDegree(8).has_value());
  EXPECT_FALSE(iface_.CachedDegree(0xFFFFFFFFu).has_value());
}

TEST_F(RestrictedInterfaceTest, BatchQueryCostsMatchPerIdQueries) {
  std::vector<NodeId> ids = {0, 1, 1, 2, 0};
  auto results = iface_.BatchQuery(ids);
  ASSERT_EQ(results.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(results[i].has_value());
    EXPECT_EQ(results[i]->user, ids[i]);
    EXPECT_EQ(results[i]->degree(), net_.graph().Degree(ids[i]));
  }
  EXPECT_EQ(iface_.QueryCost(), 3u);       // unique ids only
  EXPECT_EQ(iface_.TotalRequests(), 5u);   // every id counted
}

TEST_F(RestrictedInterfaceTest, BatchQueryPaysOneRoundTripPerChunk) {
  iface_.SetMaxBatchSize(3);
  std::vector<NodeId> ids = {0, 1, 2, 3, 4, 5, 6};
  iface_.BatchQuery(ids);
  // 7 misses in chunks of 3 -> 3 round trips; re-fetching is free.
  EXPECT_EQ(iface_.BackendRequests(), 3u);
  iface_.BatchQuery(ids);
  EXPECT_EQ(iface_.BackendRequests(), 3u);
  // Single-user queries pay one trip per miss.
  iface_.Query(7);
  EXPECT_EQ(iface_.BackendRequests(), 4u);
}

TEST_F(RestrictedInterfaceTest, BatchQueryHonorsBudgetPerId) {
  iface_.SetBudget(2);
  std::vector<NodeId> ids = {0, 1, 2, 0};
  auto results = iface_.BatchQuery(ids);
  EXPECT_TRUE(results[0].has_value());
  EXPECT_TRUE(results[1].has_value());
  EXPECT_FALSE(results[2].has_value());  // budget ran out
  EXPECT_TRUE(results[3].has_value());   // cached duplicate still answers
  EXPECT_EQ(iface_.QueryCost(), 2u);
}

TEST_F(RestrictedInterfaceTest, BatchQueryRejectsUnknownIdsAndZeroBatch) {
  std::vector<NodeId> ids = {0, 100};
  EXPECT_THROW(iface_.BatchQuery(ids), std::invalid_argument);
  EXPECT_EQ(iface_.QueryCost(), 0u);  // validated before any fetch
  EXPECT_THROW(iface_.SetMaxBatchSize(0), std::invalid_argument);
}

TEST_F(RestrictedInterfaceTest, BatchQueryEmptyBatchIsFree) {
  std::vector<NodeId> ids;
  auto results = iface_.BatchQuery(ids);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(iface_.QueryCost(), 0u);
  EXPECT_EQ(iface_.TotalRequests(), 0u);
  EXPECT_EQ(iface_.BackendRequests(), 0u);
}

TEST_F(RestrictedInterfaceTest, BatchQueryDuplicatesShareOneChunkSlot) {
  iface_.SetMaxBatchSize(2);
  // Three distinct misses among duplicates: chunks {0,1},{2} -> 2 trips,
  // and the duplicate of 0 must not consume a chunk slot.
  std::vector<NodeId> ids = {0, 0, 1, 2, 1};
  auto results = iface_.BatchQuery(ids);
  for (const auto& r : results) EXPECT_TRUE(r.has_value());
  EXPECT_EQ(iface_.QueryCost(), 3u);
  EXPECT_EQ(iface_.TotalRequests(), 5u);
  EXPECT_EQ(iface_.BackendRequests(), 2u);
}

TEST_F(RestrictedInterfaceTest, BatchQueryBudgetRunsOutMidChunk) {
  iface_.SetMaxBatchSize(3);
  iface_.SetBudget(2);
  std::vector<NodeId> ids = {0, 1, 2, 3};
  auto results = iface_.BatchQuery(ids);
  EXPECT_TRUE(results[0].has_value());
  EXPECT_TRUE(results[1].has_value());
  EXPECT_FALSE(results[2].has_value());
  EXPECT_FALSE(results[3].has_value());
  // The chunk's round trip was already paid when its first miss was
  // admitted; the refusals must not pay another.
  EXPECT_EQ(iface_.BackendRequests(), 1u);
  EXPECT_EQ(iface_.QueryCost(), 2u);
  // Lifting the budget fetches the stragglers in a fresh trip.
  iface_.SetBudget(std::nullopt);
  auto again = iface_.BatchQuery(ids);
  EXPECT_TRUE(again[2].has_value());
  EXPECT_TRUE(again[3].has_value());
  EXPECT_EQ(iface_.BackendRequests(), 2u);
  EXPECT_EQ(iface_.QueryCost(), 4u);
}

TEST_F(RestrictedInterfaceTest, QueryRefMatchesQueryAndCost) {
  auto ref = iface_.QueryRef(0);
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(ref->user, 0u);
  EXPECT_EQ(iface_.QueryCost(), 1u);
  auto copy = iface_.Query(0);
  ASSERT_TRUE(copy.has_value());
  ASSERT_EQ(ref->degree(), copy->degree());
  for (size_t i = 0; i < copy->neighbors.size(); ++i) {
    EXPECT_EQ(ref->neighbors[i], copy->neighbors[i]);
  }
  EXPECT_EQ(iface_.QueryCost(), 1u);      // hit: no extra unique query
  EXPECT_EQ(iface_.TotalRequests(), 2u);  // but both requests counted
}

TEST_F(RestrictedInterfaceTest, QueryRefHonorsBudget) {
  iface_.SetBudget(1);
  EXPECT_TRUE(iface_.QueryRef(0).has_value());
  EXPECT_FALSE(iface_.QueryRef(1).has_value());
  EXPECT_TRUE(iface_.QueryRef(0).has_value());  // cache hit still answers
  EXPECT_THROW(iface_.QueryRef(100), std::invalid_argument);
}

TEST_F(RestrictedInterfaceTest, SessionSnapshotRoundTrips) {
  iface_.Query(0);
  iface_.Query(3);
  iface_.Query(0);
  const SessionSnapshot snapshot = iface_.SnapshotSession();
  EXPECT_EQ(snapshot.cached_ids, (std::vector<NodeId>{0, 3}));
  EXPECT_EQ(snapshot.unique_queries, 2u);
  EXPECT_EQ(snapshot.total_requests, 3u);
  EXPECT_EQ(snapshot.backend_requests, 2u);

  RestrictedInterface other(net_);
  other.RestoreSession(snapshot);
  EXPECT_TRUE(other.IsCached(0));
  EXPECT_TRUE(other.IsCached(3));
  EXPECT_FALSE(other.IsCached(1));
  EXPECT_EQ(other.QueryCost(), 2u);
  EXPECT_EQ(other.TotalRequests(), 3u);
  EXPECT_EQ(other.BackendRequests(), 2u);

  SessionSnapshot bad = snapshot;
  bad.cached_ids.push_back(1000);
  EXPECT_THROW(other.RestoreSession(bad), std::invalid_argument);
}

TEST(RestrictedInterfaceProfileTest, ProfileSurfacedThroughQuery) {
  std::vector<UserProfile> profiles(3);
  profiles[2].description_length = 123;
  SocialNetwork net(Path(3), profiles);
  RestrictedInterface iface(net);
  auto r = iface.Query(2);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->profile.description_length, 123u);
}

}  // namespace
}  // namespace mto
