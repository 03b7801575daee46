#include "src/core/overlay_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/graph/generators.h"
#include "src/graph/graph_stats.h"
#include "src/util/rng.h"

namespace mto {
namespace {

/// Registers every node of `g` into `overlay`.
void RegisterAll(OverlayGraph& overlay, const Graph& g) {
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    overlay.RegisterNode(v, g.Neighbors(v));
  }
}

TEST(OverlayGraphTest, RegistrationMirrorsOriginal) {
  Graph g = Barbell(4);
  OverlayGraph overlay;
  RegisterAll(overlay, g);
  EXPECT_EQ(overlay.num_registered(), g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(overlay.Degree(v), g.Degree(v));
  }
  EXPECT_TRUE(overlay.HasEdge(3, 4));
}

TEST(OverlayGraphTest, UnregisteredAccessThrows) {
  OverlayGraph overlay;
  EXPECT_THROW(overlay.Neighbors(0), std::logic_error);
  EXPECT_FALSE(overlay.IsRegistered(0));
}

TEST(OverlayGraphTest, RegistrationIdempotent) {
  Graph g = Cycle(5);
  OverlayGraph overlay;
  overlay.RegisterNode(0, g.Neighbors(0));
  overlay.RemoveEdge(0, 1);
  overlay.RegisterNode(0, g.Neighbors(0));  // must not resurrect the edge
  EXPECT_FALSE(overlay.HasEdge(0, 1));
}

TEST(OverlayGraphTest, RemoveEdgeSymmetric) {
  Graph g = Complete(4);
  OverlayGraph overlay;
  RegisterAll(overlay, g);
  overlay.RemoveEdge(1, 2);
  EXPECT_FALSE(overlay.HasEdge(1, 2));
  EXPECT_FALSE(overlay.HasEdge(2, 1));
  EXPECT_EQ(overlay.Degree(1), 2u);
  EXPECT_EQ(overlay.Degree(2), 2u);
  EXPECT_EQ(overlay.num_removed(), 1u);
}

TEST(OverlayGraphTest, RemovalAppliesToLaterRegistration) {
  Graph g = Complete(4);
  OverlayGraph overlay;
  overlay.RegisterNode(0, g.Neighbors(0));
  overlay.RemoveEdge(0, 3);  // node 3 not yet registered
  overlay.RegisterNode(3, g.Neighbors(3));
  EXPECT_FALSE(overlay.HasEdge(3, 0));
  EXPECT_EQ(overlay.Degree(3), 2u);
}

TEST(OverlayGraphTest, AddEdgeSymmetricAndSorted) {
  Graph g(4, {{0, 1}, {2, 3}});
  OverlayGraph overlay;
  RegisterAll(overlay, g);
  overlay.AddEdge(0, 3);
  EXPECT_TRUE(overlay.HasEdge(0, 3));
  EXPECT_TRUE(overlay.HasEdge(3, 0));
  const auto& nbrs = overlay.Neighbors(3);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(overlay.num_added(), 1u);
}

TEST(OverlayGraphTest, AddAppliesToLaterRegistration) {
  Graph g(4, {{0, 1}, {2, 3}});
  OverlayGraph overlay;
  overlay.RegisterNode(0, g.Neighbors(0));
  overlay.AddEdge(0, 2);
  overlay.RegisterNode(2, g.Neighbors(2));
  EXPECT_TRUE(overlay.HasEdge(2, 0));
  EXPECT_EQ(overlay.Degree(2), 2u);
}

TEST(OverlayGraphTest, AddThenRemoveCancels) {
  Graph g(3, {{0, 1}});
  OverlayGraph overlay;
  RegisterAll(overlay, g);
  overlay.AddEdge(0, 2);
  overlay.RemoveEdge(0, 2);
  EXPECT_FALSE(overlay.HasEdge(0, 2));
  EXPECT_EQ(overlay.num_added(), 0u);
  EXPECT_EQ(overlay.num_removed(), 0u);  // cancelled, not recorded twice
}

TEST(OverlayGraphTest, RemoveThenAddCancels) {
  Graph g(3, {{0, 1}});
  OverlayGraph overlay;
  RegisterAll(overlay, g);
  overlay.RemoveEdge(0, 1);
  overlay.AddEdge(0, 1);
  EXPECT_TRUE(overlay.HasEdge(0, 1));
  EXPECT_EQ(overlay.num_removed(), 0u);
}

TEST(OverlayGraphTest, CommonNeighborCountTracksOverlay) {
  Graph g = Complete(5);
  OverlayGraph overlay;
  RegisterAll(overlay, g);
  EXPECT_EQ(overlay.CommonNeighborCount(0, 1), 3u);
  overlay.RemoveEdge(0, 2);  // 2 no longer common to 0 and 1
  EXPECT_EQ(overlay.CommonNeighborCount(0, 1), 2u);
}

TEST(OverlayGraphTest, ProcessedMemoization) {
  OverlayGraph overlay;
  EXPECT_FALSE(overlay.IsProcessed(1, 2));
  overlay.MarkProcessed(2, 1);  // normalized key: order-independent
  EXPECT_TRUE(overlay.IsProcessed(1, 2));
  EXPECT_TRUE(overlay.IsProcessed(2, 1));
}

TEST(OverlayGraphTest, DegreeDeltas) {
  Graph g = Complete(4);
  OverlayGraph overlay;
  RegisterAll(overlay, g);
  overlay.RemoveEdge(0, 1);
  overlay.RemoveEdge(0, 2);
  overlay.AddEdge(1, 2);  // already exists in g... use non-edge instead
  auto deltas = overlay.DegreeDeltas();
  EXPECT_EQ(deltas[0], -2);
  // Node 1: lost (0,1), gained duplicate-add is a no-op only in adjacency;
  // the recorded delta counts it, so compare against overlay degrees.
  for (NodeId v = 0; v < 4; ++v) {
    int expected = static_cast<int>(overlay.Degree(v)) -
                   static_cast<int>(g.Degree(v));
    int got = deltas.count(v) ? deltas[v] : 0;
    EXPECT_EQ(got, expected) << "node " << v;
  }
}

TEST(OverlayGraphTest, InducedOverlayMaterialization) {
  Graph g = Barbell(3);
  OverlayGraph overlay;
  RegisterAll(overlay, g);
  overlay.RemoveEdge(0, 1);
  std::vector<NodeId> mapping;
  Graph induced = overlay.InducedOverlay(&mapping);
  EXPECT_EQ(induced.num_nodes(), g.num_nodes());
  EXPECT_EQ(induced.num_edges(), g.num_edges() - 1);
  ASSERT_EQ(mapping.size(), g.num_nodes());
  EXPECT_FALSE(induced.HasEdge(0, 1));
}

TEST(OverlayGraphTest, InducedOverlayPartialRegistration) {
  Graph g = Complete(5);
  OverlayGraph overlay;
  overlay.RegisterNode(0, g.Neighbors(0));
  overlay.RegisterNode(1, g.Neighbors(1));
  std::vector<NodeId> mapping;
  Graph induced = overlay.InducedOverlay(&mapping);
  // Only nodes 0 and 1 registered; induced graph has their mutual edge.
  EXPECT_EQ(induced.num_nodes(), 2u);
  EXPECT_EQ(induced.num_edges(), 1u);
}

TEST(OverlayGraphTest, RemovingANonEdgeIsANoOp) {
  Graph g = Cycle(5);
  OverlayGraph overlay;
  overlay.RegisterNode(0, g.Neighbors(0));
  overlay.RemoveEdge(0, 2);  // 0's view is {1, 4}: there is no edge (0, 2)
  EXPECT_EQ(overlay.num_removed(), 0u);
  EXPECT_TRUE(overlay.DegreeDeltas().empty());
  EXPECT_TRUE(overlay.SnapshotDelta().removed.empty());
  overlay.RegisterNode(2, g.Neighbors(2));
  EXPECT_EQ(overlay.Neighbors(2), NeighborView(g.Neighbors(2)));
  // An edge already removed is a non-edge too: removing it again records
  // nothing more.
  overlay.RemoveEdge(0, 1);
  overlay.RemoveEdge(1, 0);
  EXPECT_EQ(overlay.num_removed(), 1u);
}

TEST(OverlayGraphTest, UntouchedNodesBorrowTheirInput) {
  Graph g = Complete(5);
  OverlayGraph overlay;
  RegisterAll(overlay, g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(overlay.Neighbors(v).data(), g.Neighbors(v).data());
    EXPECT_EQ(overlay.OriginalNeighbors(v).data(), g.Neighbors(v).data());
  }
  overlay.RemoveEdge(0, 1);
  overlay.MarkProcessed(2, 3);
  // The edit's endpoints own their lists now; everyone else still borrows,
  // and the originals are never copied.
  EXPECT_NE(overlay.Neighbors(0).data(), g.Neighbors(0).data());
  EXPECT_NE(overlay.Neighbors(1).data(), g.Neighbors(1).data());
  for (NodeId v = 2; v < g.num_nodes(); ++v) {
    EXPECT_EQ(overlay.Neighbors(v).data(), g.Neighbors(v).data());
  }
  EXPECT_EQ(overlay.OriginalNeighbors(0).data(), g.Neighbors(0).data());
  EXPECT_EQ(overlay.Neighbors(0), (std::vector<NodeId>{2, 3, 4}));
}

TEST(OverlayGraphTest, LateRegistrationSeesEditSequences) {
  Graph g = Cycle(6);
  OverlayGraph overlay;
  overlay.RegisterNode(0, g.Neighbors(0));
  overlay.RemoveEdge(0, 1);  // 1 unregistered: removal pending
  overlay.AddEdge(0, 1);     // ... then cancelled
  overlay.AddEdge(0, 3);     // 3 unregistered: addition pending
  overlay.RemoveEdge(0, 3);  // ... then cancelled
  overlay.AddEdge(2, 4);     // neither endpoint registered
  overlay.RemoveEdge(4, 5);
  overlay.RegisterNode(1, g.Neighbors(1));
  overlay.RegisterNode(3, g.Neighbors(3));
  overlay.RegisterNode(4, g.Neighbors(4));
  EXPECT_EQ(overlay.Neighbors(1), (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(overlay.Neighbors(1).data(), g.Neighbors(1).data());
  EXPECT_EQ(overlay.Neighbors(3), (std::vector<NodeId>{2, 4}));
  EXPECT_EQ(overlay.Neighbors(4), (std::vector<NodeId>{2, 3}));
  EXPECT_EQ(overlay.num_added(), 1u);
  EXPECT_EQ(overlay.num_removed(), 1u);
}

TEST(OverlayGraphTest, UnsortedInputIsSorted) {
  const std::vector<NodeId> unsorted = {7, 2, 9, 4};
  OverlayGraph overlay;
  overlay.RegisterNode(0, unsorted);
  EXPECT_EQ(overlay.Neighbors(0), (std::vector<NodeId>{2, 4, 7, 9}));
  EXPECT_EQ(overlay.OriginalNeighbors(0), (std::vector<NodeId>{2, 4, 7, 9}));
  EXPECT_TRUE(overlay.HasEdge(0, 9));
  overlay.AddEdge(0, 5);
  EXPECT_EQ(overlay.Neighbors(0), (std::vector<NodeId>{2, 4, 5, 7, 9}));
  EXPECT_EQ(unsorted, (std::vector<NodeId>{7, 2, 9, 4}));  // input untouched
}

/// Reference model for the differential test: the map-based overlay this
/// storage replaced, kept deliberately naive. Each node owns sorted copies
/// of its original and overlay lists, and the edits live in three edge-key
/// sets that registration scans in full.
class MapOverlay {
 public:
  void RegisterNode(NodeId v, std::span<const NodeId> input) {
    if (adjacency_.count(v) != 0) return;
    std::vector<NodeId> nbrs(input.begin(), input.end());
    std::sort(nbrs.begin(), nbrs.end());
    original_.emplace(v, nbrs);
    std::erase_if(nbrs, [&](NodeId w) { return removed_.count(Key(v, w)); });
    for (uint64_t key : added_) {
      const NodeId a = static_cast<NodeId>(key >> 32);
      const NodeId b = static_cast<NodeId>(key & 0xFFFFFFFFu);
      if (a != v && b != v) continue;
      const NodeId other = a == v ? b : a;
      auto it = std::lower_bound(nbrs.begin(), nbrs.end(), other);
      if (it == nbrs.end() || *it != other) nbrs.insert(it, other);
    }
    adjacency_.emplace(v, std::move(nbrs));
  }
  bool IsRegistered(NodeId v) const { return adjacency_.count(v) != 0; }
  const std::vector<NodeId>& Neighbors(NodeId v) const {
    return adjacency_.at(v);
  }
  const std::vector<NodeId>& OriginalNeighbors(NodeId v) const {
    return original_.at(v);
  }
  bool HasEdge(NodeId u, NodeId v) const {
    return std::binary_search(Neighbors(u).begin(), Neighbors(u).end(), v);
  }
  void RemoveEdge(NodeId u, NodeId v) {
    if (FirstViewHasEdge(u, v) == 0) return;
    const uint64_t key = Key(u, v);
    if (added_.erase(key) == 0) removed_.insert(key);
    for (NodeId x : {u, v}) {
      auto it = adjacency_.find(x);
      if (it == adjacency_.end()) continue;
      const NodeId other = (x == u) ? v : u;
      auto pos = std::lower_bound(it->second.begin(), it->second.end(), other);
      if (pos != it->second.end() && *pos == other) it->second.erase(pos);
    }
  }
  void AddEdge(NodeId u, NodeId v) {
    if (u == v || FirstViewHasEdge(u, v) == 1) return;
    const uint64_t key = Key(u, v);
    if (removed_.erase(key) == 0) added_.insert(key);
    for (NodeId x : {u, v}) {
      auto it = adjacency_.find(x);
      if (it == adjacency_.end()) continue;
      const NodeId other = (x == u) ? v : u;
      auto pos = std::lower_bound(it->second.begin(), it->second.end(), other);
      if (pos == it->second.end() || *pos != other) {
        it->second.insert(pos, other);
      }
    }
  }
  void MarkProcessed(NodeId u, NodeId v) { processed_.insert(Key(u, v)); }
  bool IsProcessed(NodeId u, NodeId v) const {
    return processed_.count(Key(u, v)) != 0;
  }
  size_t num_removed() const { return removed_.size(); }
  size_t num_added() const { return added_.size(); }
  std::map<NodeId, int> DegreeDeltas() const {
    std::map<NodeId, int> delta;
    for (uint64_t key : removed_) {
      --delta[static_cast<NodeId>(key >> 32)];
      --delta[static_cast<NodeId>(key & 0xFFFFFFFFu)];
    }
    for (uint64_t key : added_) {
      ++delta[static_cast<NodeId>(key >> 32)];
      ++delta[static_cast<NodeId>(key & 0xFFFFFFFFu)];
    }
    std::erase_if(delta, [](const auto& entry) { return entry.second == 0; });
    return delta;
  }
  OverlayGraph::Delta SnapshotDelta() const {
    OverlayGraph::Delta delta;
    for (const auto& [v, _] : adjacency_) delta.registered.push_back(v);
    delta.removed.assign(removed_.begin(), removed_.end());
    delta.added.assign(added_.begin(), added_.end());
    delta.processed.assign(processed_.begin(), processed_.end());
    return delta;  // std::map / std::set iterate in ascending order
  }
  void RestoreDelta(const OverlayGraph::Delta& delta, const Graph& g) {
    adjacency_.clear();
    original_.clear();
    removed_ = {delta.removed.begin(), delta.removed.end()};
    added_ = {delta.added.begin(), delta.added.end()};
    processed_ = {delta.processed.begin(), delta.processed.end()};
    for (NodeId v : delta.registered) RegisterNode(v, g.Neighbors(v));
  }

 private:
  static uint64_t Key(NodeId u, NodeId v) {
    if (u > v) std::swap(u, v);
    return (static_cast<uint64_t>(u) << 32) | v;
  }
  /// 1/0 whether the first registered endpoint lists the other; -1 when
  /// neither is registered.
  int FirstViewHasEdge(NodeId u, NodeId v) const {
    if (IsRegistered(u)) return HasEdge(u, v) ? 1 : 0;
    if (IsRegistered(v)) return HasEdge(v, u) ? 1 : 0;
    return -1;
  }

  std::map<NodeId, std::vector<NodeId>> adjacency_;
  std::map<NodeId, std::vector<NodeId>> original_;
  std::set<uint64_t> removed_;
  std::set<uint64_t> added_;
  std::set<uint64_t> processed_;
};

std::map<NodeId, int> NonZero(const std::unordered_map<NodeId, int>& deltas) {
  std::map<NodeId, int> out;
  for (const auto& [v, d] : deltas) {
    if (d != 0) out[v] = d;
  }
  return out;
}

void ExpectSameState(const OverlayGraph& overlay, const MapOverlay& ref,
                     NodeId n) {
  ASSERT_EQ(overlay.num_removed(), ref.num_removed());
  ASSERT_EQ(overlay.num_added(), ref.num_added());
  const OverlayGraph::Delta got = overlay.SnapshotDelta();
  const OverlayGraph::Delta want = ref.SnapshotDelta();
  ASSERT_EQ(got.registered, want.registered);
  ASSERT_EQ(got.removed, want.removed);
  ASSERT_EQ(got.added, want.added);
  ASSERT_EQ(got.processed, want.processed);
  ASSERT_EQ(NonZero(overlay.DegreeDeltas()), ref.DegreeDeltas());
  for (NodeId v = 0; v < n; ++v) {
    ASSERT_EQ(overlay.IsRegistered(v), ref.IsRegistered(v)) << "node " << v;
    for (NodeId w = 0; w < n; ++w) {
      ASSERT_EQ(overlay.IsProcessed(v, w), ref.IsProcessed(v, w));
    }
    if (!ref.IsRegistered(v)) continue;
    ASSERT_EQ(overlay.Neighbors(v), NeighborView(ref.Neighbors(v)))
        << "node " << v;
    ASSERT_EQ(overlay.OriginalNeighbors(v),
              NeighborView(ref.OriginalNeighbors(v)));
    ASSERT_EQ(overlay.Degree(v), ref.Neighbors(v).size());
    for (NodeId w = 0; w < n; ++w) {
      ASSERT_EQ(overlay.HasEdge(v, w), ref.HasEdge(v, w));
    }
  }
}

TEST(OverlayGraphTest, MatchesMapReferenceOnRandomEditSequences) {
  constexpr NodeId kNodes = 14;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const Graph g = ErdosRenyi(kNodes, 0.35, rng);
    // Shuffled copies of the neighbor lists exercise the sorted-copy path.
    // They live for the whole sequence, as the lifetime rule requires.
    std::vector<std::vector<NodeId>> shuffled(kNodes);
    for (NodeId v = 0; v < kNodes; ++v) {
      shuffled[v].assign(g.Neighbors(v).begin(), g.Neighbors(v).end());
      for (size_t i = shuffled[v].size(); i > 1; --i) {
        std::swap(shuffled[v][i - 1], shuffled[v][rng.UniformInt(i)]);
      }
    }
    OverlayGraph overlay;
    MapOverlay ref;
    auto node = [&] { return static_cast<NodeId>(rng.UniformInt(kNodes)); };
    // Half the time an original edge of u, otherwise any pair (non-edges,
    // self-loops and pairs of unregistered nodes included).
    auto partner = [&](NodeId u) {
      const auto nbrs = g.Neighbors(u);
      if (!nbrs.empty() && rng.Bernoulli(0.5)) {
        return nbrs[rng.UniformInt(nbrs.size())];
      }
      return node();
    };
    for (int op = 0; op < 250; ++op) {
      const uint64_t kind = rng.UniformInt(10);
      const NodeId u = node();
      if (kind < 3) {
        const bool unsorted = rng.Bernoulli(0.5);
        const std::span<const NodeId> input =
            unsorted ? std::span<const NodeId>(shuffled[u]) : g.Neighbors(u);
        overlay.RegisterNode(u, input);
        ref.RegisterNode(u, input);
      } else if (kind < 6) {
        const NodeId v = partner(u);
        overlay.RemoveEdge(u, v);
        ref.RemoveEdge(u, v);
      } else if (kind < 8) {
        const NodeId v = node();
        overlay.AddEdge(u, v);
        ref.AddEdge(u, v);
      } else if (kind < 9) {
        const NodeId v = partner(u);
        overlay.MarkProcessed(u, v);
        ref.MarkProcessed(u, v);
      } else {
        const OverlayGraph::Delta delta = overlay.SnapshotDelta();
        overlay.RestoreDelta(delta,
                             [&g](NodeId v) { return g.Neighbors(v); });
        ref.RestoreDelta(delta, g);
      }
      ASSERT_NO_FATAL_FAILURE(ExpectSameState(overlay, ref, kNodes))
          << "after op " << op << " (kind " << kind << ")";
    }
  }
}

}  // namespace
}  // namespace mto
