#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/graph/graph.h"

namespace mto {

/// Read-only view of a sorted neighbor list. A `std::span` that compares by
/// content, so two views (or a view and a braced list) can be checked with
/// `==`. It borrows: see OverlayGraph for how long a returned view lives.
class NeighborView : public std::span<const NodeId> {
 public:
  using std::span<const NodeId>::span;
  // Implicit: a span converts wherever a view is expected. (Inheriting
  // constructors skips the base's copy constructor.)
  NeighborView(std::span<const NodeId> s) : std::span<const NodeId>(s) {}

  friend bool operator==(NeighborView a, NeighborView b) {
    return std::ranges::equal(a, b);
  }
};

/// The virtual overlay topology G* that MTO-Sampler walks on (paper Fig 1).
///
/// The overlay starts out equal to the original graph; as the walk queries
/// neighborhoods it registers them here, and the edge rules then remove or
/// replace edges. All modifications are recorded globally (by edge key) so
/// that a node queried *after* an incident edge was modified still sees the
/// modified neighborhood — the overlay is one consistent graph, not a
/// per-node view. Rewiring decisions are memoized (`MarkProcessed`) so the
/// walk is a genuine random walk on a converging topology.
///
/// Storage is copy on write (DESIGN.md §5). A registered node's overlay
/// list *is* the span handed to `RegisterNode` (borrowed, not copied) until
/// an edit touches that node; only then does the overlay own a vector for
/// it. Hence the lifetime rule: every span passed to `RegisterNode`, and
/// every span `RestoreDelta`'s callback returns, must outlive the overlay
/// (or its next `RestoreDelta`). Interface responses (`QueryRef`) and CSR
/// rows satisfy it. An unsorted span is the one exception: the overlay
/// keeps a sorted copy of it.
///
/// Views returned by `Neighbors(v)` / `OriginalNeighbors(v)` stay valid
/// until `RemoveEdge` or `AddEdge` with v as an endpoint (for `Neighbors`),
/// or `RestoreDelta` and destruction (for both). `RegisterNode`,
/// `MarkProcessed` and the const members never invalidate a view.
class OverlayGraph {
 public:
  OverlayGraph() = default;

  /// Registers the *original* neighborhood of `v` (the response of q(v)).
  /// Applies all previously recorded removals/additions involving v.
  /// Idempotent; subsequent calls are no-ops. `original_neighbors` is
  /// borrowed and must outlive the overlay (see the class comment).
  void RegisterNode(NodeId v, std::span<const NodeId> original_neighbors);

  /// True iff v's neighborhood has been registered.
  bool IsRegistered(NodeId v) const { return FindSlot(v) != nullptr; }

  /// Overlay neighbor list of a registered node (sorted ascending).
  /// Throws std::logic_error if `v` is not registered.
  NeighborView Neighbors(NodeId v) const;

  /// Overlay degree k*_v of a registered node.
  uint32_t Degree(NodeId v) const;

  /// The *original* neighbor list of a registered node, exactly as the web
  /// interface returned it (sorted). The paper's edge criteria are stated on
  /// the original graph, so the sampler consults these by default.
  NeighborView OriginalNeighbors(NodeId v) const;

  /// Original degree k_v of a registered node.
  uint32_t OriginalDegree(NodeId v) const;

  /// |N(u) ∩ N(v)| on the original graph (both registered).
  uint32_t OriginalCommonNeighborCount(NodeId u, NodeId v) const;

  /// True iff edge (u,v) is present in the overlay view of registered node
  /// u. Requires u registered.
  bool HasEdge(NodeId u, NodeId v) const;

  /// Overlay common-neighbor count |N*(u) ∩ N*(v)| (both must be registered).
  uint32_t CommonNeighborCount(NodeId u, NodeId v) const;

  /// Removes edge (u,v) from the overlay. Updates both endpoints' lists (if
  /// registered) and records the removal for nodes registered later. No-op
  /// when a registered endpoint's view lacks the edge; otherwise a spurious
  /// removal record would corrupt DegreeDeltas() and SnapshotDelta().
  void RemoveEdge(NodeId u, NodeId v);

  /// Adds edge (u,v) to the overlay (no-op if already present).
  void AddEdge(NodeId u, NodeId v);

  /// Memoizes that edge (u,v) has been classified; future encounters skip
  /// the rules (gives replacements their once-only semantics).
  void MarkProcessed(NodeId u, NodeId v);

  /// True iff (u,v) was already classified.
  bool IsProcessed(NodeId u, NodeId v) const {
    return (edges_.Get(Key(u, v)) & kProcessed) != 0;
  }

  /// Number of recorded removals / additions (diagnostics).
  size_t num_removed() const { return num_removed_; }
  size_t num_added() const { return num_added_; }

  /// Nodes registered so far.
  size_t num_registered() const { return slots_.size(); }

  /// True iff v is reachable from u in the overlay *without* using edge
  /// (u, v), traversing only registered nodes (an unregistered node can be
  /// reached but not expanded — its neighborhood is unknown to the walk).
  /// Explores at most `max_visits` nodes; returns false when the budget runs
  /// out, so a true result is a proof and a false result is "unknown".
  /// This is the connectivity guard that keeps aggressive removals from
  /// stranding the walk (DESIGN.md §5).
  bool PathExistsAvoiding(NodeId u, NodeId v, size_t max_visits = 4096) const;

  /// Net overlay-degree change per node implied by all recorded removals
  /// and additions: k*_v = k_v + delta[v] (0 when absent). Covers nodes that
  /// were never registered, which is what the KL experiments need to build
  /// the full ideal distribution τ*.
  std::unordered_map<NodeId, int> DegreeDeltas() const;

  /// Order-independent image of everything the walk did to the overlay: the
  /// registered node set plus the recorded edge-rule mutations (removals,
  /// additions, classification marks, as packed `Key(u, v)` edge keys). The
  /// overlay's full state is a pure function of this delta and the original
  /// neighborhoods — `RegisterNode` applies recorded mutations regardless
  /// of arrival order — which is what makes the MTO sampler checkpointable
  /// (see src/service/checkpoint.h). All vectors are sorted ascending, so a
  /// delta serializes deterministically.
  struct Delta {
    std::vector<NodeId> registered;
    std::vector<uint64_t> removed;
    std::vector<uint64_t> added;
    std::vector<uint64_t> processed;
  };

  /// Captures the current delta (sorted copies of the internal state).
  Delta SnapshotDelta() const;

  /// Rebuilds this overlay from a delta: installs the mutation sets, then
  /// re-registers every node through `original_neighbors` (the q(v)
  /// response source — the restored session cache, or ground truth on the
  /// service's resume path). Any existing state is discarded. The rebuilt
  /// overlay is bit-identical to the one the delta was snapshotted from.
  /// The spans the callback returns are borrowed like RegisterNode's.
  void RestoreDelta(
      const Delta& delta,
      const std::function<std::span<const NodeId>(NodeId)>& original_neighbors);

  /// Materializes the overlay restricted to registered nodes as a Graph,
  /// relabelling to 0..k-1; `mapping`, when non-null, receives
  /// overlay-node -> original-id. Edges to unregistered endpoints are kept
  /// only if the endpoint appears in some registered list and is itself
  /// registered (i.e. the induced subgraph on registered nodes).
  Graph InducedOverlay(std::vector<NodeId>* mapping = nullptr) const;

 private:
  static uint64_t Key(NodeId u, NodeId v) {
    if (u > v) std::swap(u, v);
    return (static_cast<uint64_t>(u) << 32) | v;
  }

  /// Open-addressing hash map with linear probing and power-of-two
  /// capacity. A slot whose value equals `kEmpty` is free, so stored values
  /// never equal it. Entries are never erased.
  template <typename K, typename V, V kEmpty>
  class FlatMap {
   public:
    /// The value stored under `key`, or kEmpty.
    V Get(K key) const {
      if (keys_.empty()) return kEmpty;
      for (size_t i = Home(key);; i = (i + 1) & mask_) {
        if (values_[i] == kEmpty || keys_[i] == key) return values_[i];
      }
    }
    /// The value slot of `key`, inserted as `init` when absent.
    V& FindOrInsert(K key, V init) {
      if ((size_ + 1) * 10 > keys_.size() * 7) Grow();
      size_t i = Home(key);
      for (; values_[i] != kEmpty; i = (i + 1) & mask_) {
        if (keys_[i] == key) return values_[i];
      }
      keys_[i] = key;
      values_[i] = init;
      ++size_;
      return values_[i];
    }
    template <typename F>
    void ForEach(F&& f) const {
      for (size_t i = 0; i < keys_.size(); ++i) {
        if (values_[i] != kEmpty) f(keys_[i], values_[i]);
      }
    }

   private:
    size_t Home(K key) const {
      return static_cast<size_t>(
          (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >> shift_);
    }
    void Grow() {
      FlatMap bigger;
      const size_t capacity = keys_.empty() ? 16 : keys_.size() * 2;
      bigger.keys_.resize(capacity);
      bigger.values_.assign(capacity, kEmpty);
      bigger.mask_ = capacity - 1;
      bigger.shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
      ForEach([&](K key, V value) { bigger.FindOrInsert(key, value); });
      *this = std::move(bigger);
    }

    std::vector<K> keys_;
    std::vector<V> values_;
    size_t size_ = 0;
    size_t mask_ = 0;
    unsigned shift_ = 64;
  };

  /// One registered node. Its overlay list is `original` until the first
  /// edit touching it (`owned == kBorrowed`), then `owned_[owned]`.
  struct Slot {
    std::span<const NodeId> original;  ///< sorted; borrowed or sorted copy
    NodeId node;
    uint32_t owned;
  };
  static constexpr uint32_t kBorrowed = UINT32_MAX;
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  // Edge-table state bits. kKnown marks every occupied entry, so an entry
  // whose edits cancelled out still holds its probe chain together.
  static constexpr uint8_t kKnown = 1;
  static constexpr uint8_t kRemoved = 2;
  static constexpr uint8_t kAdded = 4;
  static constexpr uint8_t kProcessed = 8;

  const Slot* FindSlot(NodeId v) const {
    const uint32_t i = index_.Get(v);
    return i == kNoSlot ? nullptr : &slots_[i];
  }
  Slot* FindSlot(NodeId v) {
    const uint32_t i = index_.Get(v);
    return i == kNoSlot ? nullptr : &slots_[i];
  }
  const Slot& SlotOf(NodeId v, const char* what) const;
  NeighborView View(const Slot& slot) const {
    if (slot.owned == kBorrowed) return slot.original;
    return owned_[slot.owned];
  }
  /// The node's owned overlay list, copied from its original on first write.
  std::vector<NodeId>& Write(Slot& slot);
  /// Inserts (`add`) or erases `other` in a registered node's list; no
  /// write when the list already agrees.
  void Edit(Slot& slot, NodeId other, bool add);
  /// Applies an edit of edge (u, v) to each registered endpoint and queues
  /// it for each unregistered one.
  void EditEndpoints(NodeId u, NodeId v, bool add);

  std::vector<Slot> slots_;  ///< registration order
  FlatMap<NodeId, uint32_t, kNoSlot> index_;  ///< node -> slots_ index
  std::vector<std::vector<NodeId>> owned_;    ///< written overlay lists
  std::vector<std::vector<NodeId>> sorted_copies_;  ///< of unsorted inputs
  FlatMap<uint64_t, uint8_t, 0> edges_;       ///< edge key -> state bits
  /// Unregistered node -> pending_[i]: far endpoints of edits recorded
  /// while it was unregistered (registration re-reads their state bits).
  FlatMap<NodeId, uint32_t, kNoSlot> pending_index_;
  std::vector<std::vector<NodeId>> pending_;
  size_t num_removed_ = 0;
  size_t num_added_ = 0;
};

}  // namespace mto
