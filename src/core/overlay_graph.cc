#include "src/core/overlay_graph.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <utility>

namespace mto {
namespace {

/// |a ∩ b| of two sorted lists.
uint32_t CountCommon(NeighborView a, NeighborView b) {
  uint32_t count = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

/// Whether the first registered endpoint of (u, v), u before v, lists the
/// other one; std::nullopt when neither is registered.
std::optional<bool> FirstViewHasEdge(const OverlayGraph& overlay, NodeId u,
                                     NodeId v) {
  if (overlay.IsRegistered(u)) return overlay.HasEdge(u, v);
  if (overlay.IsRegistered(v)) return overlay.HasEdge(v, u);
  return std::nullopt;
}

}  // namespace

void OverlayGraph::RegisterNode(NodeId v,
                                std::span<const NodeId> original_neighbors) {
  uint32_t& index = index_.FindOrInsert(v, kNoSlot);
  if (index != kNoSlot) return;
  index = static_cast<uint32_t>(slots_.size());
  std::span<const NodeId> original = original_neighbors;
  if (!std::is_sorted(original.begin(), original.end())) {
    auto& copy = sorted_copies_.emplace_back(original.begin(), original.end());
    std::sort(copy.begin(), copy.end());
    original = copy;
  }
  slots_.push_back({original, v, kBorrowed});
  // Apply the edits recorded while v was unregistered. The list holds
  // candidates; the edge table says what each one's edit came to.
  const uint32_t p = pending_index_.Get(v);
  if (p == kNoSlot) return;
  const std::vector<NodeId> others = std::move(pending_[p]);
  Slot& slot = slots_.back();
  for (NodeId w : others) {
    const uint8_t state = edges_.Get(Key(v, w));
    if ((state & kRemoved) != 0) {
      const NeighborView view = View(slot);
      const auto [lo, hi] = std::equal_range(view.begin(), view.end(), w);
      if (lo != hi) {
        std::vector<NodeId>& list = Write(slot);
        list.erase(list.begin() + (lo - view.begin()),
                   list.begin() + (hi - view.begin()));
      }
    }
    if ((state & kAdded) != 0) Edit(slot, w, /*add=*/true);
  }
}

const OverlayGraph::Slot& OverlayGraph::SlotOf(NodeId v,
                                               const char* what) const {
  const Slot* slot = FindSlot(v);
  if (slot == nullptr) throw std::logic_error(what);
  return *slot;
}

std::vector<NodeId>& OverlayGraph::Write(Slot& slot) {
  if (slot.owned == kBorrowed) {
    slot.owned = static_cast<uint32_t>(owned_.size());
    owned_.emplace_back(slot.original.begin(), slot.original.end());
  }
  return owned_[slot.owned];
}

void OverlayGraph::Edit(Slot& slot, NodeId other, bool add) {
  const NeighborView view = View(slot);
  const auto pos = std::lower_bound(view.begin(), view.end(), other);
  if ((pos != view.end() && *pos == other) == add) return;
  const auto offset = pos - view.begin();
  std::vector<NodeId>& list = Write(slot);
  if (add) {
    list.insert(list.begin() + offset, other);
  } else {
    list.erase(list.begin() + offset);
  }
}

void OverlayGraph::EditEndpoints(NodeId u, NodeId v, bool add) {
  for (NodeId x : {u, v}) {
    const NodeId other = (x == u) ? v : u;
    if (Slot* slot = FindSlot(x)) {
      Edit(*slot, other, add);
      continue;
    }
    uint32_t& p = pending_index_.FindOrInsert(
        x, static_cast<uint32_t>(pending_.size()));
    if (p == pending_.size()) pending_.emplace_back();
    pending_[p].push_back(other);
  }
}

NeighborView OverlayGraph::Neighbors(NodeId v) const {
  return View(SlotOf(v, "OverlayGraph::Neighbors: node not registered"));
}

uint32_t OverlayGraph::Degree(NodeId v) const {
  return static_cast<uint32_t>(Neighbors(v).size());
}

NeighborView OverlayGraph::OriginalNeighbors(NodeId v) const {
  return SlotOf(v, "OverlayGraph::OriginalNeighbors: not registered").original;
}

uint32_t OverlayGraph::OriginalDegree(NodeId v) const {
  return static_cast<uint32_t>(OriginalNeighbors(v).size());
}

uint32_t OverlayGraph::OriginalCommonNeighborCount(NodeId u, NodeId v) const {
  return CountCommon(OriginalNeighbors(u), OriginalNeighbors(v));
}

bool OverlayGraph::HasEdge(NodeId u, NodeId v) const {
  const NeighborView nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

uint32_t OverlayGraph::CommonNeighborCount(NodeId u, NodeId v) const {
  return CountCommon(Neighbors(u), Neighbors(v));
}

void OverlayGraph::RemoveEdge(NodeId u, NodeId v) {
  // No-op when the edge is already absent from a registered endpoint's
  // view (mirrors AddEdge's guard).
  if (FirstViewHasEdge(*this, u, v) == false) return;
  uint8_t& state = edges_.FindOrInsert(Key(u, v), kKnown);
  if ((state & kAdded) != 0) {
    state &= ~kAdded;
    --num_added_;
  } else if ((state & kRemoved) == 0) {
    state |= kRemoved;
    ++num_removed_;
  }
  EditEndpoints(u, v, /*add=*/false);
}

void OverlayGraph::AddEdge(NodeId u, NodeId v) {
  if (u == v) return;
  // No-op when the edge is already present in a registered endpoint's view;
  // otherwise a spurious added record would corrupt DegreeDeltas().
  if (FirstViewHasEdge(*this, u, v) == true) return;
  uint8_t& state = edges_.FindOrInsert(Key(u, v), kKnown);
  if ((state & kRemoved) != 0) {
    state &= ~kRemoved;
    --num_removed_;
  } else if ((state & kAdded) == 0) {
    state |= kAdded;
    ++num_added_;
  }
  EditEndpoints(u, v, /*add=*/true);
}

void OverlayGraph::MarkProcessed(NodeId u, NodeId v) {
  edges_.FindOrInsert(Key(u, v), kKnown) |= kProcessed;
}

bool OverlayGraph::PathExistsAvoiding(NodeId u, NodeId v,
                                      size_t max_visits) const {
  if (!IsRegistered(u)) return false;
  // Fast path: a shared overlay neighbor is a length-2 detour.
  if (IsRegistered(v) && CommonNeighborCount(u, v) > 0) return true;
  std::unordered_set<NodeId> seen{u};
  std::vector<NodeId> frontier{u};
  std::vector<NodeId> next;
  while (!frontier.empty() && seen.size() < max_visits) {
    next.clear();
    for (NodeId x : frontier) {
      if (!IsRegistered(x)) continue;  // reachable but not expandable
      for (NodeId y : Neighbors(x)) {
        if ((x == u && y == v) || (x == v && y == u)) continue;  // the edge
        if (y == v) return true;
        if (seen.insert(y).second) {
          next.push_back(y);
          if (seen.size() >= max_visits) return false;
        }
      }
    }
    frontier.swap(next);
  }
  return false;
}

std::unordered_map<NodeId, int> OverlayGraph::DegreeDeltas() const {
  std::unordered_map<NodeId, int> delta;
  edges_.ForEach([&](uint64_t key, uint8_t state) {
    const int change = ((state & kAdded) != 0) - ((state & kRemoved) != 0);
    if (change == 0) return;
    delta[static_cast<NodeId>(key >> 32)] += change;
    delta[static_cast<NodeId>(key & 0xFFFFFFFFu)] += change;
  });
  return delta;
}

OverlayGraph::Delta OverlayGraph::SnapshotDelta() const {
  Delta delta;
  delta.registered.reserve(slots_.size());
  for (const Slot& slot : slots_) delta.registered.push_back(slot.node);
  delta.removed.reserve(num_removed_);
  delta.added.reserve(num_added_);
  edges_.ForEach([&](uint64_t key, uint8_t state) {
    if ((state & kRemoved) != 0) delta.removed.push_back(key);
    if ((state & kAdded) != 0) delta.added.push_back(key);
    if ((state & kProcessed) != 0) delta.processed.push_back(key);
  });
  std::sort(delta.registered.begin(), delta.registered.end());
  std::sort(delta.removed.begin(), delta.removed.end());
  std::sort(delta.added.begin(), delta.added.end());
  std::sort(delta.processed.begin(), delta.processed.end());
  return delta;
}

void OverlayGraph::RestoreDelta(
    const Delta& delta,
    const std::function<std::span<const NodeId>(NodeId)>& original_neighbors) {
  *this = OverlayGraph();
  // Install the edit records as if every node were still unregistered: set
  // each key's bit once and queue it at both endpoints.
  auto install = [&](const std::vector<uint64_t>& keys, uint8_t bit,
                     size_t& count) {
    for (uint64_t key : keys) {
      uint8_t& state = edges_.FindOrInsert(key, kKnown);
      if ((state & bit) != 0) continue;
      state |= bit;
      ++count;
      EditEndpoints(static_cast<NodeId>(key >> 32),
                    static_cast<NodeId>(key & 0xFFFFFFFFu), bit == kAdded);
    }
  };
  install(delta.removed, kRemoved, num_removed_);
  install(delta.added, kAdded, num_added_);
  for (uint64_t key : delta.processed) {
    edges_.FindOrInsert(key, kKnown) |= kProcessed;
  }
  for (NodeId v : delta.registered) RegisterNode(v, original_neighbors(v));
}

Graph OverlayGraph::InducedOverlay(std::vector<NodeId>* mapping) const {
  std::vector<NodeId> nodes;
  nodes.reserve(slots_.size());
  for (const Slot& slot : slots_) nodes.push_back(slot.node);
  std::sort(nodes.begin(), nodes.end());
  std::unordered_map<NodeId, NodeId> relabel;
  for (NodeId i = 0; i < nodes.size(); ++i) relabel[nodes[i]] = i;
  std::vector<Edge> edges;
  for (NodeId u : nodes) {
    for (NodeId w : Neighbors(u)) {
      if (u < w && relabel.count(w) != 0) {
        edges.push_back({relabel[u], relabel[w]});
      }
    }
  }
  if (mapping != nullptr) *mapping = nodes;
  return Graph(static_cast<NodeId>(nodes.size()), edges);
}

}  // namespace mto
